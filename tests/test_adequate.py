import math
import random
from fractions import Fraction

import pytest

from edr.adequate import (
    adequate_split,
    pi_adequate_split_zn,
    series_adequate_split,
    verify_adequate,
)
from edr.errors import ScaleExceeded, UnsupportedRing, ZeroConstantTerm, ZeroElement
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    TruncatedSeriesRing,
    is_unit,
)

from oracles import exists_split_zn, valid_adequate_split_z, valid_split_zn

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
    with pytest.raises(ScaleExceeded):
        verify_adequate(Z.from_int(10**7), Z.from_int(3), Z.one, Z.from_int(10**7))
    for n in (10**4 + 1, 10**5000 + 1):  # the second is past the 4300-digit str() limit
        big = ModularRing(n)
        with pytest.raises(ScaleExceeded):
            verify_adequate(big.one, big.one, big.one, big.one)
    huge = Z.from_int(10**5000)
    with pytest.raises(ScaleExceeded):
        verify_adequate(huge, Z.from_int(3), Z.one, huge)


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
    assert sp.m == 2
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
