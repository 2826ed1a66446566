import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edr.errors import DescriptorMismatch, NotDivisible, ScaleExceeded, UnsupportedRing
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    TruncatedSeriesRing,
    bezout_combination,
    canonical_associate,
    coprime_divisor,
    divide_exact,
    exact_quotient,
    factorize,
    gcd_bezout,
    ideal_combination,
    int_from_decimal,
    int_to_decimal,
    is_prime,
    is_unit,
    jacobson_member,
    unit_inverse,
)

from oracles import (
    canonical_associate_zn,
    in_ideal,
    jacobson_brute_zn,
    pair_unimodular_by_scan,
    sieve_factorizations,
    trial_factorize,
)

Z = IntegerRing()
M12 = ModularRing(12)
GF2 = PrimeFieldPolynomialRing(2)
GF5 = PrimeFieldPolynomialRing(5)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ModularRing(1)
    with pytest.raises(ValueError):
        PrimeFieldPolynomialRing(4)
    with pytest.raises(ValueError):
        TruncatedSeriesRing(0)
    with pytest.raises(ValueError):
        ProductRing([Z])


def test_products_refuse_a_factor_without_an_op_table():
    S = TruncatedSeriesRing(2)
    for factors in ([Z, S], [S, GF5], [M12, ProductRing([Z, GF2]), S]):
        with pytest.raises(UnsupportedRing):
            ProductRing(factors)
    with pytest.raises(UnsupportedRing):
        ProductRing([Z, ProductRing([M12, S])])  # the inner product is refused


def test_descriptor_equality_is_structural():
    assert ModularRing(12) == ModularRing(12)
    assert ModularRing(12) != ModularRing(13)
    assert ProductRing([Z, M12]) == ProductRing([IntegerRing(), ModularRing(12)])
    assert hash(ModularRing(12)) == hash(ModularRing(12))


def test_arith_examples():
    assert Z.from_int(3) + Z.from_int(-3) == Z.zero
    assert M12.from_int(8) * M12.from_int(9) == M12.zero
    x_plus_1 = GF2.element([1, 1])
    assert x_plus_1 + x_plus_1 == GF2.zero
    assert -Z.from_int(5) == Z.from_int(-5)


def test_descriptor_mismatch_raises():
    with pytest.raises(DescriptorMismatch):
        Z.from_int(1) + M12.from_int(1)
    with pytest.raises(DescriptorMismatch):
        Z.from_int(1) * ModularRing(7).from_int(1)
    for fn in (gcd_bezout, exact_quotient, divide_exact):
        with pytest.raises(DescriptorMismatch):
            fn(Z.from_int(1), M12.from_int(1))


def test_is_unit_examples():
    assert unit_inverse(Z.from_int(-1)) == Z.from_int(-1)
    assert unit_inverse(Z.from_int(2)) is None
    assert unit_inverse(M12.from_int(5)) == M12.from_int(5)
    assert unit_inverse(M12.from_int(8)) is None
    # brute cross-check over Z/12
    for v in range(12):
        brute = any(v * t % 12 == 1 for t in range(12))
        assert is_unit(M12.from_int(v)) == brute


def test_unit_inverse_is_exact():
    rng = random.Random(11)
    rings = [Z, M12, ModularRing(35), GF5]
    for ring in rings:
        for _ in range(50):
            x = _random_element(ring, rng)
            inv = unit_inverse(x)
            if inv is not None:
                assert x * inv == ring.one


def test_gcd_bezout_examples():
    bd = gcd_bezout(Z.from_int(4), Z.from_int(6))
    assert bd.g == Z.from_int(2)
    assert bd.a1 == Z.from_int(2) and bd.b1 == Z.from_int(3)
    assert bd.holds_for(Z.from_int(4), Z.from_int(6))

    bd0 = gcd_bezout(Z.zero, Z.zero)
    assert bd0.g == Z.zero
    assert bd0.holds_for(Z.zero, Z.zero)

    a = GF5.element([4, 0, 1])  # x^2 - 1
    b = GF5.element([4, 1])  # x - 1
    bd = gcd_bezout(a, b)
    assert bd.g == GF5.element([4, 1])  # monic x - 1
    assert bd.a1 == GF5.element([1, 1]) and bd.b1 == GF5.one
    assert bd.holds_for(a, b)


def test_gcd_bezout_unsupported_over_series():
    S = TruncatedSeriesRing(3)
    with pytest.raises(UnsupportedRing):
        gcd_bezout(S.from_int(2), S.from_int(4))


def test_divide_exact_examples():
    assert divide_exact(Z.from_int(12), Z.from_int(4)) == Z.from_int(3)
    with pytest.raises(NotDivisible):
        divide_exact(Z.from_int(5), Z.from_int(2))
    # canonical solution among all residue solutions
    solutions = [q for q in range(12) if 4 * q % 12 == 8]
    assert solutions == [2, 5, 8, 11]
    assert divide_exact(M12.from_int(8), M12.from_int(4)) == M12.from_int(2)


def test_jacobson_examples():
    assert jacobson_member(M12.from_int(6))
    assert not jacobson_member(M12.from_int(4))
    assert jacobson_member(Z.zero)
    assert not jacobson_member(Z.from_int(3))
    assert jacobson_member(TruncatedSeriesRing(3).element([0, 1, 1]))
    assert not jacobson_member(GF5.element([0, 1]))


def test_jacobson_matches_brute_definition():
    for n in range(2, 61):
        ring = ModularRing(n)
        for a in range(n):
            assert jacobson_member(ring.from_int(a)) == jacobson_brute_zn(n, a)


def test_canonical_associate_examples():
    u, norm = canonical_associate(Z.from_int(-6))
    assert (u, norm) == (Z.from_int(-1), Z.from_int(6))
    u, norm = canonical_associate(Z.zero)
    assert (u, norm) == (Z.one, Z.zero)
    u, norm = canonical_associate(GF5.element([1, 3]))  # 3x + 1
    assert u == GF5.from_int(3) and norm == GF5.element([2, 1])
    assert u * norm == GF5.element([1, 3])


def test_canonical_associate_modular():
    for n in (12, 16, 36, 100):
        ring = ModularRing(n)
        for v in range(n):
            u, norm = canonical_associate(ring.from_int(v))
            assert is_unit(u)
            assert u * norm == ring.from_int(v)
            expected = math.gcd(v, n) % n
            assert norm.payload == expected


def _random_element(ring, rng):
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.randint(-80, 80))
    if isinstance(ring, ModularRing):
        return ring.from_int(rng.randrange(ring.n))
    if isinstance(ring, PrimeFieldPolynomialRing):
        deg = rng.randint(-1, 3)
        if deg < 0:
            return ring.zero
        return ring.element([rng.randrange(ring.p) for _ in range(deg)] + [rng.randrange(1, ring.p)])
    raise AssertionError


@pytest.mark.parametrize("ring", [Z, M12, ModularRing(16), ModularRing(36), GF2, GF5])
def test_bezout_identities_hold_on_random_pairs(ring):
    rng = random.Random(hash(str(ring)) & 0xFFFF)
    for _ in range(200):
        a = _random_element(ring, rng)
        b = _random_element(ring, rng)
        bd = gcd_bezout(a, b)
        assert bd.holds_for(a, b)
        # gcd is symmetric up to (and here including) canonical associates
        assert canonical_associate(gcd_bezout(b, a).g)[1] == canonical_associate(bd.g)[1]


def test_product_bezout_componentwise():
    ring = ProductRing([Z, M12])
    a = ring.element((4, 8))
    b = ring.element((6, 6))
    bd = gcd_bezout(a, b)
    assert bd.holds_for(a, b)
    assert bd.g.payload == (2, 2)  # the tuple of the component payloads


def test_divide_round_trip():
    rng = random.Random(5)
    for ring in (Z, GF5):
        for _ in range(100):
            a = _random_element(ring, rng)
            b = _random_element(ring, rng)
            if b.is_zero():
                continue
            q = divide_exact(a * b, b)
            assert canonical_associate(q)[1] == canonical_associate(a)[1]
            assert q == a  # exact, not just up to associates, over these rings
    for _ in range(200):
        b = M12.from_int(rng.randrange(12))
        t = M12.from_int(rng.randrange(12))
        a = b * t
        q = divide_exact(a, b)
        assert b * q == a


def test_series_arithmetic_and_inverse():
    S = TruncatedSeriesRing(4)
    f = S.element([1, 1])
    g = S.element([1, -1])
    assert f * g == S.element([1, 0, -1])
    h = S.element([-1, 5, 0, Fraction(2, 3)])  # constant -1 is a unit
    inv = unit_inverse(h)
    assert inv is not None and h * inv == S.one
    assert unit_inverse(S.from_int(2)) is None
    assert unit_inverse(S.element([0, 1])) is None


def test_series_exact_division():
    S = TruncatedSeriesRing(4)
    x = S.element([0, 1])
    two = S.from_int(2)
    q = divide_exact(x, two)
    assert two * q == x
    assert divide_exact(x * x, x) * x == x * x
    with pytest.raises(NotDivisible):
        divide_exact(S.one, two)
    with pytest.raises(NotDivisible):
        divide_exact(x, x * x)


def test_product_unit_iff_all_components():
    ring = ProductRing([M12, ModularRing(5)])
    assert is_unit(ring.element((5, 2)))
    assert not is_unit(ring.element((4, 2)))
    inv = unit_inverse(ring.element((5, 2)))
    assert inv * ring.element((5, 2)) == ring.one


def test_bezout_combination_folds():
    g, coeffs = bezout_combination([Z.from_int(6), Z.from_int(10), Z.from_int(15)])
    assert g == Z.one
    total = Z.zero
    for c, a in zip(coeffs, [Z.from_int(6), Z.from_int(10), Z.from_int(15)]):
        total = total + c * a
    assert total == g


IDEAL_RINGS = [Z, ModularRing(360), ModularRing(97 * 89), PrimeFieldPolynomialRing(3), ProductRing([ModularRing(4), ModularRing(6)])]


def _ideal_elements(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-60, 60).map(ring.from_int)
    if isinstance(ring, ModularRing):
        return st.integers(0, ring.n - 1).map(ring.from_int)
    if isinstance(ring, PrimeFieldPolynomialRing):
        return st.lists(st.integers(0, ring.p - 1), max_size=4).map(ring.element)
    return st.tuples(*map(_ideal_elements, ring.factors)).map(lambda cs: ring.element(tuple(c.payload for c in cs)))


@st.composite
def _ideal_cases(draw):
    ring = draw(st.sampled_from(IDEAL_RINGS))
    elements = draw(st.lists(_ideal_elements(ring), min_size=1, max_size=4))
    target = draw(st.one_of(st.just(ring.one), _ideal_elements(ring)))
    return ring, elements, target


@settings(max_examples=400, deadline=None)
@given(case=_ideal_cases())
def test_ideal_combination_writes_exactly_the_ideal_members(case):
    ring, elements, target = case
    coeffs = ideal_combination(elements, target)
    assert (coeffs is None) == (not in_ideal(ring, elements, target))
    if coeffs is not None:
        total = ring.zero
        for c, e in zip(coeffs, elements):
            total = total + c * e
        assert total == target
    if target == ring.one and len(elements) == 2:
        # the normalised pair the lifts and the 2x2 step used to build by hand
        bd = gcd_bezout(*elements)
        inv = unit_inverse(bd.g)
        assert coeffs == (None if inv is None else [bd.x * inv, bd.y * inv])
        if isinstance(ring, ProductRing):
            assert (coeffs is not None) == pair_unimodular_by_scan(*elements)


def test_exact_quotient_returns_none_instead_of_raising():
    S = TruncatedSeriesRing(3)
    P = ProductRing([Z, M12])
    cases = [
        (Z.from_int(12), Z.from_int(4), Z.from_int(3)),
        (Z.from_int(5), Z.from_int(2), None),
        (Z.from_int(5), Z.zero, None),
        (Z.zero, Z.zero, Z.zero),
        (M12.from_int(8), M12.from_int(4), M12.from_int(2)),
        (M12.from_int(3), M12.from_int(4), None),
        (GF5.element([0, 1]), GF5.element([0, 0, 1]), None),
        (S.one, S.from_int(2), None),
        (P.element((6, 8)), P.element((3, 4)), P.element((2, 2))),
        (P.element((6, 3)), P.element((3, 4)), None),
    ]
    for a, b, q in cases:
        assert exact_quotient(a, b) == q
        if q is None:
            with pytest.raises(NotDivisible):
                divide_exact(a, b)
        else:
            assert divide_exact(a, b) == q


def test_not_divisible_message_stays_short_for_huge_operands():
    big = Z.from_int(3**40000)  # about 19000 decimal digits
    with pytest.raises(NotDivisible) as exc:
        divide_exact(big, Z.from_int(2))
    assert len(str(exc.value)) < 100


def test_is_prime_rejects_psi12():
    # psi_12, the least strong pseudoprime to the first 12 prime bases
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert [n for n in range(2, 60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
    ]


def test_decimal_conversion_beyond_the_interpreter_digit_limit():
    for v in (0, 7, -7, 10**3611, 10**3612 + 1, -(10**20000) - 12345, 3**50000):
        text = int_to_decimal(v)
        assert text.lstrip("-") == text.lstrip("-").lstrip("0") or text == "0"
        value = int_from_decimal(text.lstrip("-"))
        assert (-value if text.startswith("-") else value) == v
    assert int_to_decimal(10**20000 + 12345) == "1" + "0" * 19995 + "12345"
    assert int_to_decimal(-(10**5000)) == "-1" + "0" * 5000
    assert int_from_decimal("0" * 9000 + "42") == 42
    assert Z.element_str(Z.from_int(10**5000)) == "1" + "0" * 5000


# ---------------------------------------------------------------------------
# factor-free Z/n primitives against factorization-based formulas


def test_coprime_divisor_examples():
    assert coprime_divisor(360, 6) == 5
    assert coprime_divisor(360, 7) == 360
    assert coprime_divisor(360, 0) == 1
    assert coprime_divisor(1, 12) == 1


def test_modular_primitives_match_factorization_formulas():
    rng = random.Random(400)
    for n in range(2, 401):
        ring = ModularRing(n)
        rad = math.prod(trial_factorize(n))
        for a in range(n):
            el = ring.from_int(a)
            u, norm = canonical_associate(el)
            assert (u.payload, norm.payload) == canonical_associate_zn(n, a), (n, a)
            assert jacobson_member(el) == (a % rad == 0), (n, a)
            for b in (rng.randrange(n), rng.randrange(n)):
                bd = gcd_bezout(el, ring.from_int(b))
                g, x, y, a1, b1 = (v.payload for v in (bd.g, bd.x, bd.y, bd.a1, bd.b1))
                assert g == math.gcd(a, b, n) % n, (n, a, b)
                assert (x * a + y * b - g) % n == 0, (n, a, b)
                assert (a1 * g - a) % n == 0 and (b1 * g - b) % n == 0, (n, a, b)
                assert (x * a1 + y * b1) % n == 1, (n, a, b)


def test_factorize_matches_the_sieve_below_1e5():
    expected = sieve_factorizations(10**5)
    for n in range(1, 10**5):
        assert factorize(n) == expected[n], n


def _oracle_prime(rng, bits):
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if trial_factorize(p) == {p: 1}:
            return p


def test_factorize_splits_seeded_40_bit_semiprimes():
    rng = random.Random(40)
    for _ in range(12):
        p, q = _oracle_prime(rng, 20), _oracle_prime(rng, 20)
        expected = {p: 1, q: 1} if p != q else {p: 2}
        assert factorize(p * q) == expected
    # repeated large primes and a small-prime tail go through rho too
    p, q = _oracle_prime(rng, 18), _oracle_prime(rng, 16)
    assert factorize(p**2 * q * 12) == {2: 2, 3: 1, p: 2, q: 1}
    assert factorize(p**3) == {p: 3}


def test_factorize_refuses_beyond_its_budget(prime_pair_128):
    p, q = prime_pair_128
    with pytest.raises(ScaleExceeded):
        factorize(p * q)
    with pytest.raises(ScaleExceeded):
        factorize((1 << 521) - 1)  # a Mersenne prime past the length cap
    assert factorize(1 << 600) == {2: 600}  # the strip alone needs no cap
