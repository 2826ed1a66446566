import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edr.adequate import (
    adequate_split,
    lifted_split,
    pi_adequate_split_zn,
    series_adequate_split,
    verify_adequate,
)
from edr.errors import (
    DescriptorMismatch,
    PreconditionFailed,
    UnsupportedRing,
    ZeroConstantTerm,
    ZeroElement,
)
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    TruncatedSeriesRing,
    gcd_bezout,
    is_unit,
)

from oracles import (
    divisors_meet_gfpx,
    divisors_meet_z,
    divisors_meet_zn,
    exists_split_zn,
    poly_irreducible_factors,
    poly_mul,
    poly_trim,
    split_one_gcd_per_pass,
    trial_factorize,
    valid_adequate_split_gfpx,
    valid_adequate_split_z,
    valid_split_zn,
)

Z = IntegerRing()


def test_split_examples():
    sp = adequate_split(Z.from_int(12), Z.from_int(10))
    assert (sp.r, sp.s, sp.m) == (Z.from_int(3), Z.from_int(4), 1)
    sp = adequate_split(Z.from_int(7), Z.from_int(10))
    assert (sp.r, sp.s) == (Z.from_int(7), Z.one)
    ring = PrimeFieldPolynomialRing(2)
    sp = adequate_split(ring.element([0, 0, 1, 1]), ring.element([0, 1]))  # x^2(x+1) vs x
    assert sp.r == ring.element([1, 1])
    assert sp.s == ring.element([0, 0, 1])


def test_split_witness_is_unimodular():
    sp = adequate_split(Z.from_int(360), Z.from_int(42))
    assert is_unit(sp.witness.g)
    assert sp.witness.holds_for(sp.r, Z.from_int(42))


def test_split_errors():
    with pytest.raises(ZeroElement):
        adequate_split(Z.zero, Z.from_int(3))
    with pytest.raises(UnsupportedRing):
        adequate_split(ModularRing(6).from_int(2), ModularRing(6).from_int(3))


def test_split_agrees_with_divisor_oracle_sample():
    rng = random.Random(42)
    for _ in range(300):
        a = rng.randint(1, 2000)
        b = rng.randint(1, 500)
        sp = adequate_split(Z.from_int(a), Z.from_int(b))
        assert valid_adequate_split_z(a, b, sp.r.payload, sp.s.payload)


def test_verifier_accepts_construction_on_random_pairs():
    rng = random.Random(4242)
    for _ in range(500):
        a = Z.from_int(rng.randint(1, 10**4))
        b = Z.from_int(rng.randint(1, 10**4))
        sp = adequate_split(a, b)
        assert verify_adequate(a, b, sp.r, sp.s).ok


def test_split_with_negative_and_zero_b():
    sp = adequate_split(Z.from_int(-12), Z.from_int(10))
    assert sp.r.payload * sp.s.payload == -12
    assert valid_adequate_split_z(-12, 10, sp.r.payload, sp.s.payload)
    sp = adequate_split(Z.from_int(12), Z.zero)
    assert valid_adequate_split_z(12, 0, sp.r.payload, sp.s.payload)


@st.composite
def split_cases(draw):
    """(a, b) over Z, GF(p)[x] or Z/n: a carries high powers of some primes
    (irreducibles), and b often meets them; over Z, a may be negative and b
    zero."""
    kind = draw(st.sampled_from(["Z", "GF(p)[x]", "Z/n"]))
    if kind == "Z":
        primes = draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 65537]), max_size=3))
        a = draw(st.integers(1, 10**6)) * math.prod(q ** draw(st.integers(1, 80)) for q in primes)
        b = draw(st.integers(-(10**4), 10**4) | st.builds(lambda k: k * math.prod(primes), st.integers(-30, 30)))
        return Z.from_int(draw(st.sampled_from([1, -1])) * a), Z.from_int(b)
    if kind == "Z/n":
        n = draw(st.integers(2, 10**6) | st.builds(pow, st.sampled_from([2, 3, 7, 65537]), st.integers(1, 60)))
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            b = a * b % n
        return ModularRing(n).from_int(a), ModularRing(n).from_int(b)
    p = draw(st.sampled_from([2, 5, 65537]))
    ring = PrimeFieldPolynomialRing(p)

    def poly(max_deg):
        return poly_trim(draw(st.lists(st.integers(0, p - 1), max_size=max_deg + 1)))

    monic = st.lists(st.integers(0, p - 1), min_size=1, max_size=2).map(lambda cs: (*cs, 1))
    factors = draw(st.lists(monic, max_size=3))
    a = poly(4) or (1,)
    for q in factors:
        for _ in range(draw(st.integers(1, 20))):
            a = poly_mul(a, q, p)
    b = poly(3)
    if factors and draw(st.booleans()):
        b = poly_mul(b or (1,), draw(st.sampled_from(factors)), p)
    return ring.element(a), ring.element(b)


@settings(max_examples=400, deadline=None)
@given(split_cases())
def test_split_matches_one_gcd_per_pass(case):
    # the squared-gcd loop gives the plain loop's r, s and witness; over Z/n
    # both split gcd(a, n) against b's lift on Z
    a, b = case
    sp = lifted_split(a, b)
    if isinstance(a.ring, ModularRing):
        a, b = Z.from_int(math.gcd(a.payload, a.ring.n)), Z.from_int(b.payload)
    assert (sp.r, sp.s, sp.witness, sp.m) == (*split_one_gcd_per_pass(a, b), 1)


def test_split_gcd_count_grows_by_a_constant_per_doubling(monkeypatch):
    # a prime of multiplicity k costs O(log k) gcds: 2^k against 2 and x^k
    # against x add at most two gcd_bezout calls per doubling of k; a split
    # that strips one power per gcd fails at the 65th call, not the 65,537th
    calls = []

    def counted(x, y):
        calls.append(1)
        if len(calls) > 64:
            pytest.fail("more than 64 gcd_bezout calls in one split")
        return gcd_bezout(x, y)

    monkeypatch.setattr("edr.adequate.gcd_bezout", counted)
    gf5 = PrimeFieldPolynomialRing(5)
    for power, prime in ((lambda k: Z.from_int(2**k), Z.from_int(2)),
                         (lambda k: gf5.element([0] * k + [1]), gf5.element([0, 1]))):
        counts = []
        for k in (2**j for j in range(10, 17)):
            calls.clear()
            sp = adequate_split(power(k), prime)
            assert (sp.r, sp.s) == (prime.ring.one, power(k))
            counts.append(len(calls))
        assert all(c1 - c0 <= 2 for c0, c1 in zip(counts, counts[1:])), counts


def test_verify_examples():
    ten = Z.from_int(10)
    assert verify_adequate(Z.from_int(12), ten, Z.from_int(3), Z.from_int(4)).ok
    rep = verify_adequate(Z.from_int(12), ten, Z.from_int(4), Z.from_int(3))
    assert not rep.ok and "gcd(r,b) unit" in rep.failures
    rep = verify_adequate(Z.from_int(12), ten, Z.from_int(6), Z.from_int(2))
    assert not rep.ok and "gcd(r,b) unit" in rep.failures
    rep = verify_adequate(Z.from_int(12), ten, Z.from_int(2), Z.from_int(6))
    assert not rep.ok  # r = 2 shares a factor with 10, s = 6 has divisor 3


def test_verify_scale_guards():
    # no size bound: nothing is factored, so large s and n get a report
    big = Z.from_int(10**7)
    assert verify_adequate(big, Z.from_int(3), Z.one, big).failures == ("divisor condition",)
    assert verify_adequate(big, Z.from_int(30), Z.one, big).ok
    # the second modulus is past the 4300-digit str() limit; d is a prime factor
    for n, d in ((10**4 + 1, 73), (10**5000 + 1, 17)):
        ring = ModularRing(n)
        assert verify_adequate(ring.one, ring.one, ring.one, ring.one).ok
        s = ring.from_int(d)
        assert verify_adequate(s, ring.from_int(3), ring.one, s).failures == ("divisor condition",)
        assert verify_adequate(s, ring.from_int(2 * d), ring.one, s).ok
    huge = Z.from_int(10**5000)
    assert verify_adequate(huge, Z.from_int(3), Z.one, huge).failures == ("divisor condition",)
    assert verify_adequate(huge, Z.from_int(10), Z.one, huge).ok


def test_verify_preconditions():
    twelve, ten = Z.from_int(12), Z.from_int(10)
    for m in (0, -3):  # 12^0 = 1*1 must not certify
        with pytest.raises(PreconditionFailed):
            verify_adequate(twelve, ten, Z.one, Z.one, m)
    assert verify_adequate(twelve, ten, Z.from_int(9), Z.from_int(16), 2).ok
    # every operand must share a's ring, whatever its payload type
    mixed = [(ModularRing(10).from_int(5), Z.from_int(3), Z.from_int(4)),
             (Z.from_int(10), Z.from_int(3), ModularRing(10).from_int(4)),
             (Z.from_int(10), Z.from_int(3), PrimeFieldPolynomialRing(5).element([4]))]
    for b, r, s in mixed:
        with pytest.raises(DescriptorMismatch):
            verify_adequate(twelve, b, r, s)
    prod = ProductRing([Z, ModularRing(6)])
    S = TruncatedSeriesRing(3)
    for ring in (prod, S):
        with pytest.raises(UnsupportedRing):
            verify_adequate(ring.one, ring.one, ring.one, ring.one)
        with pytest.raises(UnsupportedRing):
            verify_adequate(ring.one, ring.one, ring.one, ring.one, 0)


def _two_quadratics(p):
    """q1 = x^2 - x + c1 and q2 = x^2 - x + c2 over GF(p), both irreducible:
    1 - 4c is a quadratic non-residue (p odd)."""
    cs = [c for c in range(1, 100) if pow((1 - 4 * c) % p, (p - 1) // 2, p) == p - 1][:2]
    ring = PrimeFieldPolynomialRing(p)
    return ring, [ring.element([c, -1, 1]) for c in cs]


@pytest.mark.parametrize("p", [65537, 3317044064679887385961813])
def test_verify_two_quadratics_at_large_p(p):
    # trial division over the p^2 monic quadratics would take hours at p = 65537
    ring, (q1, q2) = _two_quadratics(p)
    s = q1 * q2
    start = time.perf_counter()
    rep = verify_adequate(s, ring.element([1, 1]), ring.one, s)
    assert rep.failures == ("divisor condition",)
    assert verify_adequate(s, s, ring.one, s).ok
    assert verify_adequate(s * q1, q1 * q2, ring.one, s * q1).ok
    assert verify_adequate(s, q1, ring.one, s).failures == ("divisor condition",)
    assert time.perf_counter() - start < 1.0


def _divisor_clause(rep):
    return "divisor condition" not in rep.failures


@st.composite
def z_cases(draw):
    s = draw(st.sampled_from([0, 1, -1]) | st.integers(-2000, 2000))
    r = draw(st.integers(-50, 50))
    a, m = draw(st.integers(-40, 40)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        a, m = r * s, 1  # the product clause holds
    b = draw(st.integers(-500, 500))
    if draw(st.booleans()):  # every prime of s divides b, each only once
        b = math.prod(trial_factorize(abs(s))) * draw(st.integers(-3, 3))
    return a, b, r, s, m


@settings(max_examples=400, deadline=None)
@given(z_cases())
def test_verify_agrees_with_oracle_over_z(case):
    a, b, r, s, m = case
    rep = verify_adequate(*(Z.from_int(v) for v in (a, b, r, s)), m)
    assert _divisor_clause(rep) == divisors_meet_z(s, b)
    assert rep.ok == valid_adequate_split_z(a, b, r, s, m)


@st.composite
def zn_cases(draw):
    n = draw(st.integers(2, 119))
    a, b, r, s = (draw(st.integers(0, n - 1)) for _ in range(4))
    s = draw(st.sampled_from([s, 0, 1, n - 1]))
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        a, m = r * s % n, 1
    if draw(st.booleans()):
        b = math.prod(trial_factorize(math.gcd(s, n))) * draw(st.integers(0, n - 1)) % n
    return n, a, b, r, s, m


@settings(max_examples=400, deadline=None)
@given(zn_cases())
def test_verify_agrees_with_oracle_over_zn(case):
    n, a, b, r, s, m = case
    ring = ModularRing(n)
    rep = verify_adequate(*(ring.from_int(v) for v in (a, b, r, s)), m)
    assert _divisor_clause(rep) == divisors_meet_zn(n, s, b)
    assert rep.ok == valid_split_zn(n, a, b, r, s, m)


@st.composite
def gfpx_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def poly(max_deg):
        return poly_trim(draw(st.lists(st.integers(0, p - 1), max_size=max_deg + 1)))

    s, r, a, m = poly(8), poly(3), poly(3), draw(st.integers(1, 3))
    if draw(st.booleans()):
        a, m = poly_mul(r, s, p), 1
    b = poly(6)
    if s and draw(st.booleans()):  # every irreducible of s divides b, each only once
        b = (1,)
        for q in set(poly_irreducible_factors(s, p)):
            b = poly_mul(b, q, p)
        b = poly_mul(b, poly(2), p)
    return p, a, b, r, s, m


@settings(max_examples=300, deadline=None)
@given(gfpx_cases())
def test_verify_agrees_with_oracle_over_gfpx(case):
    p, a, b, r, s, m = case
    ring = PrimeFieldPolynomialRing(p)
    rep = verify_adequate(*(ring.element(v) for v in (a, b, r, s)), m)
    assert _divisor_clause(rep) == divisors_meet_gfpx(p, s, b)
    assert rep.ok == valid_adequate_split_gfpx(p, a, b, r, s, m)


def test_verify_polynomial_divisor_condition():
    ring = PrimeFieldPolynomialRing(2)
    x = ring.element([0, 1])
    x1 = ring.element([1, 1])
    # x^2(x+1) = (x+1) * x^2 relative to x: valid
    assert verify_adequate(x * x * x1, x, x1, x * x).ok
    # swapped: r = x^2 shares x with b, and s = x+1 has a divisor coprime to x
    rep = verify_adequate(x * x * x1, x, x * x, x1)
    assert not rep.ok
    assert "gcd(r,b) unit" in rep.failures and "divisor condition" in rep.failures


def test_pi_split_examples():
    M12 = ModularRing(12)
    sp = pi_adequate_split_zn(M12.one, M12.from_int(5))
    assert sp.m == 1  # both are units: no prime power needs a^m to vanish
    assert sp.r * sp.s == M12.one and is_unit(sp.r)

    sp = pi_adequate_split_zn(M12.from_int(6), M12.from_int(4))
    assert sp.m == 2
    assert valid_split_zn(12, 6, 4, sp.r.payload, sp.s.payload, sp.m)
    # the enumeration oracle confirms a valid split of zero exists at all
    assert exists_split_zn(12, 6, 4, 2)

    M8 = ModularRing(8)
    sp = pi_adequate_split_zn(M8.from_int(2), M8.from_int(2))
    assert sp.m == 3
    assert (sp.r.payload, sp.s.payload) == (1, 0)
    assert valid_split_zn(8, 2, 2, 1, 0, 3)


def test_pi_split_requires_modular_ring():
    with pytest.raises(UnsupportedRing):
        pi_adequate_split_zn(Z.from_int(4), Z.from_int(2))


def test_pi_split_passes_verifier_exhaustively_small():
    for n in (8, 12):
        ring = ModularRing(n)
        for a in range(n):
            for b in range(n):
                sp = pi_adequate_split_zn(ring.from_int(a), ring.from_int(b))
                assert verify_adequate(ring.from_int(a), ring.from_int(b), sp.r, sp.s, sp.m).ok


@st.composite
def pi_cases(draw):
    prime_power = st.builds(pow, st.sampled_from([2, 3, 5, 7, 11, 13, 97]), st.integers(1, 40))
    n = draw(st.integers(2, 10**4) | prime_power)
    primes = sorted(trial_factorize(n))

    def element():
        # a multiple of some of n's primes, times a random residue
        x = draw(st.integers(0, n - 1))
        for p in draw(st.lists(st.sampled_from(primes), max_size=3)):
            x = x * p
        return x * draw(st.sampled_from([1, *primes])) % n

    return n, element(), element()


@settings(max_examples=300, deadline=None)
@given(pi_cases())
def test_pi_split_exponent_is_least_that_clears_each_touched_prime(case):
    n, a, b = case
    ring = ModularRing(n)
    sp = pi_adequate_split_zn(ring.from_int(a), ring.from_int(b))
    assert verify_adequate(ring.from_int(a), ring.from_int(b), sp.r, sp.s, sp.m).ok
    exponents = trial_factorize(n)
    assert 1 <= sp.m <= max(exponents.values())
    # n_x: the full prime powers of n whose primes divide x
    touched = {x: math.prod(p**e for p, e in exponents.items() if x % p == 0) for x in (a, b)}
    assert all(pow(x, sp.m, nx) == 0 for x, nx in touched.items())
    # m - 1 leaves a prime power uncleared for whichever of a and b attains m
    assert sp.m == 1 or any(pow(x, sp.m - 1, nx) != 0 for x, nx in touched.items())


def test_pi_split_exponent_at_scale():
    # a = 3u with u a large unit: m = 20000 is found by squarings and a
    # binary descent, where a walk over m would take 20000 products
    n = 3**20000 * 2
    ring = ModularRing(n)
    a = ring.from_int(3 * 5**10000 % n)
    b = ring.from_int(2 * 7**3000 % n)
    start = time.perf_counter()
    sp = pi_adequate_split_zn(a, b)
    assert verify_adequate(a, b, sp.r, sp.s, sp.m).ok
    assert time.perf_counter() - start < 1.0
    assert sp.m == 20000


def test_power_stability_of_splits():
    # if (r, s) splits a relative to b, (r^n, s^n) splits a^n for n in {2, 3}
    rng = random.Random(9)
    for _ in range(60):
        a = rng.randint(1, 100)
        b = rng.randint(1, 60)
        sp = adequate_split(Z.from_int(a), Z.from_int(b))
        for n in (2, 3):
            rn = Z.from_int(sp.r.payload**n)
            sn = Z.from_int(sp.s.payload**n)
            assert verify_adequate(Z.from_int(a), Z.from_int(b), rn, sn, n).ok


def test_product_splits_componentwise():
    # componentwise pi-splits over Z/m x Z/n pass a componentwise verifier,
    # and the recombined product element multiplies back to the power tuple
    m, n = 12, 8
    Rm, Rn = ModularRing(m), ModularRing(n)
    ring = ProductRing([Rm, Rn])
    rng = random.Random(17)
    for _ in range(40):
        a = (rng.randrange(m), rng.randrange(n))
        b = (rng.randrange(m), rng.randrange(n))
        splits = [
            pi_adequate_split_zn(Rm.from_int(a[0]), Rm.from_int(b[0])),
            pi_adequate_split_zn(Rn.from_int(a[1]), Rn.from_int(b[1])),
        ]
        for sub, av, bv, sp in zip((Rm, Rn), a, b, splits):
            assert verify_adequate(sub.from_int(av), sub.from_int(bv), sp.r, sp.s, sp.m).ok
        prod_r = ring.element((splits[0].r, splits[1].r))
        prod_s = ring.element((splits[0].s, splits[1].s))
        power = ring.element(
            (pow(a[0], splits[0].m, m), pow(a[1], splits[1].m, n))
        )
        assert prod_r * prod_s == power


def test_series_split_examples():
    S4 = TruncatedSeriesRing(4)
    f = S4.element([6, 1, 0, 0])
    g = S4.element([35, 0, 0, 0])
    s_el, t_el = series_adequate_split(f, g)
    assert s_el == f and t_el == S4.one  # coprime constants

    S3 = TruncatedSeriesRing(3)
    f = S3.element([12, 1, 0])
    s_el, t_el = series_adequate_split(f, S3.element([10, 0, 0]))
    assert s_el.payload[0] == 3 and t_el.payload[0] == 4
    assert s_el * t_el == f

    S2 = TruncatedSeriesRing(2)
    f = S2.element([1, 5])
    s_el, t_el = series_adequate_split(f, S2.element([7, 0]))
    assert (s_el, t_el) == (f, S2.one)


def test_series_split_random_remultiplies():
    rng = random.Random(23)
    S = TruncatedSeriesRing(6)
    for _ in range(60):
        z0 = rng.choice([v for v in range(-50, 51) if v])
        coeffs = [z0] + [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(5)]
        f = S.element(coeffs)
        g = S.element([rng.randint(-50, 50)] + [0] * 5)
        s_el, t_el = series_adequate_split(f, g)
        assert s_el * t_el == f
        # the constant split is the adequate split of the constants
        assert s_el.payload[0] * t_el.payload[0] == z0
        assert math.gcd(s_el.payload[0], g.payload[0]) in (0, 1)


def test_series_split_errors():
    S = TruncatedSeriesRing(3)
    with pytest.raises(ZeroConstantTerm):
        series_adequate_split(S.element([0, 1, 0]), S.from_int(3))
    with pytest.raises(UnsupportedRing):
        series_adequate_split(Z.from_int(3), Z.from_int(5))


def test_verify_rejects_wrong_power():
    a, b = Z.from_int(12), Z.from_int(10)
    sp = adequate_split(a, b)
    rep = verify_adequate(a, b, sp.r, sp.s, m=2)
    assert not rep.ok and "a^m = r*s" in rep.failures
