"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to see them stream) and asserts both the property and its runtime bound.
All randomness is seeded, so the suite is reproducible byte for byte.
"""

import math
import random
import time
from fractions import Fraction

from edr.adequate import (
    adequate_split,
    pi_adequate_split_zn,
    series_adequate_split,
    verify_adequate,
)
from edr.checkers import PREDICATES, check_finite_predicate
from edr.complete import complete_row, sr1_quotient_lift, sr2_reduce, verify_completion
from edr.matrices import RingMatrix
from edr.reduce import (
    ReductionCertificate,
    diagonal_reduce,
    verify_reduction,
)
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    TruncatedSeriesRing,
    bezout_combination,
    gcd_bezout,
    is_unit,
    jacobson_member,
)

from oracles import elementary_divisors_oracle, valid_adequate_split_z

Z = IntegerRing()


def _report(name, ok, elapsed=None, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if elapsed is not None:
        line += f" ({elapsed:.2f}s)"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _random_matrix(ring, rng, max_dim, entry):
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return RingMatrix(ring, [[entry(rng) for _ in range(n)] for _ in range(m)])


def _int_entry(rng):
    return Z.from_int(rng.randint(-50, 50))


def _mod_entry(ring):
    return lambda rng: ring.from_int(rng.randrange(ring.n))


def _poly_entry(ring, max_deg=2):
    def gen(rng):
        deg = rng.randint(-1, max_deg)
        if deg < 0:
            return ring.zero
        return ring.element(
            [rng.randrange(ring.p) for _ in range(deg)] + [rng.randrange(1, ring.p)]
        )

    return gen


def test_criterion_smith_oracle_agreement():
    start = time.monotonic()
    rng = random.Random(20240801)
    for _ in range(200):
        A = _random_matrix(Z, rng, 5, _int_entry)
        cert = diagonal_reduce(A)
        r = min(A.rows, A.cols)
        diag = [cert.D.entries[i][i] for i in range(r)]
        assert diag == elementary_divisors_oracle(A)
    elapsed = time.monotonic() - start
    _report(
        "smith/oracle agreement on 200 random integer matrices",
        elapsed < 10.0,
        elapsed,
        "diagonal equals determinantal-divisor quotients exactly",
    )


def _tamper_cases(ring, base, nonunit):
    """(certificate, expected clause) triples for one base matrix."""
    cert = diagonal_reduce(base)
    assert verify_reduction(base, cert).ok

    tampered = [list(r) for r in cert.D.entries]
    tampered[0][0] = tampered[0][0] + ring.one
    entry_cert = ReductionCertificate(
        cert.P, RingMatrix(ring, tampered), cert.Q, cert.detP_unit, cert.detQ_unit
    )

    scaled = RingMatrix(ring, [[e * nonunit for e in row] for row in cert.P.entries])
    scale_cert = ReductionCertificate(scaled, cert.D, cert.Q, cert.detP_unit, cert.detQ_unit)

    r = min(cert.D.rows, cert.D.cols)
    swapped = [list(row) for row in cert.D.entries]
    swapped[0][0], swapped[r - 1][r - 1] = swapped[r - 1][r - 1], swapped[0][0]
    swap_cert = ReductionCertificate(
        cert.P, RingMatrix(ring, swapped), cert.Q, cert.detP_unit, cert.detQ_unit
    )

    return [
        (entry_cert, "PAQ=D"),
        (scale_cert, "det(P) unit"),
        (swap_cert, "divisibility chain"),
    ]


def test_criterion_certificate_soundness():
    start = time.monotonic()
    gf2 = PrimeFieldPolynomialRing(2)
    gf5 = PrimeFieldPolynomialRing(5)
    settings = [
        (Z, lambda rng: _int_entry(rng)),
        (ModularRing(12), None),
        (ModularRing(16), None),
        (ModularRing(36), None),
        (gf2, _poly_entry(gf2)),
        (gf5, _poly_entry(gf5)),
    ]
    for ring, entry in settings:
        entry = entry or _mod_entry(ring)
        rng = random.Random(hash(str(ring)) & 0xFFFFF)
        for _ in range(200):
            A = _random_matrix(ring, rng, 4, entry)
            cert = diagonal_reduce(A)
            assert verify_reduction(A, cert).ok, str(ring)

    # deliberate tampers, each rejected with the correct clause
    x = gf2.element([0, 1])
    tamper_bases = [
        (Z, RingMatrix.from_payloads(Z, [[2, 4], [6, 8]]), Z.from_int(2)),
        (ModularRing(12), None, None),
        (ModularRing(16), None, None),
        (ModularRing(36), None, None),
        (gf2, RingMatrix(gf2, [[x, gf2.zero], [gf2.one, x]]), x),
        (gf5, RingMatrix(gf5, [[gf5.element([0, 1]), gf5.zero], [gf5.one, gf5.element([0, 1])]]), gf5.element([0, 1])),
    ]
    for ring, base, nonunit in tamper_bases:
        if base is None:
            base = RingMatrix.from_payloads(ring, [[2, 4], [6, 8]])
            nonunit = ring.from_int(2)
        for bad_cert, clause in _tamper_cases(ring, base, nonunit):
            rep = verify_reduction(base, bad_cert)
            assert not rep.ok and clause in rep.failures, (str(ring), clause, rep)
    elapsed = time.monotonic() - start
    _report(
        "certificate soundness across Z, Z/12, Z/16, Z/36, GF(2)[x], GF(5)[x]",
        True,
        elapsed,
        "1200 round trips verified, every tamper rejected with its clause",
    )


def test_criterion_strong_completability():
    start = time.monotonic()
    rng = random.Random(4413)
    for _ in range(200):
        n = rng.randint(2, 5)
        row = [Z.from_int(rng.randint(-30, 30)) for _ in range(n)]
        d = Z.from_int(math.gcd(*[v.payload for v in row]))
        cert = complete_row(row, d)
        assert verify_completion(cert).ok
        assert tuple(cert.A.entries[0]) == tuple(row)
        assert cert.det_value == d
    for mod in (6, 12, 30):
        ring = ModularRing(mod)
        mrng = random.Random(4413 + mod)
        for _ in range(200):
            n = mrng.randint(2, 5)
            row = [ring.from_int(mrng.randrange(mod)) for _ in range(n)]
            d, _ = bezout_combination(row)
            cert = complete_row(row, d)
            assert verify_completion(cert).ok
    # residue rings are strongly completable for every modulus up to 60
    for mod in range(2, 61):
        ring = ModularRing(mod)
        mrng = random.Random(mod)
        for _ in range(4):
            n = mrng.randint(2, 5)
            row = [ring.from_int(mrng.randrange(mod)) for _ in range(n)]
            d, _ = bezout_combination(row)
            cert = complete_row(row, d)
            assert verify_completion(cert).ok
    elapsed = time.monotonic() - start
    _report(
        "strong completability over Z and Z/n (including every n <= 60)",
        elapsed < 5.0,
        elapsed,
        "first row and exact determinant verified on every certificate",
    )


def test_criterion_adequacy_oracle():
    start = time.monotonic()
    for a in range(1, 501):
        ea = Z.from_int(a)
        for b in range(1, 101):
            sp = adequate_split(ea, Z.from_int(b))
            assert valid_adequate_split_z(a, b, sp.r.payload, sp.s.payload), (a, b)
    elapsed = time.monotonic() - start
    _report(
        "gcd-extraction splits accepted by the all-factorizations oracle",
        elapsed < 30.0,
        elapsed,
        "exhaustive over 1 <= a <= 500, 1 <= b <= 100",
    )


def test_criterion_pi_split_construction():
    start = time.monotonic()
    for n in (8, 12, 36, 100):
        ring = ModularRing(n)
        for a in range(n):
            ea = ring.from_int(a)
            for b in range(n):
                eb = ring.from_int(b)
                sp = pi_adequate_split_zn(ea, eb)
                assert verify_adequate(ea, eb, sp.r, sp.s, sp.m).ok, (n, a, b)
    elapsed = time.monotonic() - start
    _report(
        "idempotent power-splits verified exhaustively over Z/8, Z/12, Z/36, Z/100",
        elapsed < 60.0,
        elapsed,
    )


def _unimodular_triple(ring, rng, a_outside_radical):
    while True:
        if isinstance(ring, IntegerRing):
            els = [ring.from_int(rng.randint(-60, 60)) for _ in range(3)]
        elif isinstance(ring, ModularRing):
            els = [ring.from_int(rng.randrange(ring.n)) for _ in range(3)]
        else:
            gen = _poly_entry(ring, max_deg=3)
            els = [gen(rng) for _ in range(3)]
        g, _ = bezout_combination(els)
        if not is_unit(g):
            continue
        if a_outside_radical and jacobson_member(els[0]):
            continue
        return els


def test_criterion_lift_contracts():
    start = time.monotonic()
    gf5 = PrimeFieldPolynomialRing(5)
    rng = random.Random(777)

    def ring_for(i):
        choice = i % 3
        if choice == 0:
            return Z
        if choice == 1:
            return ModularRing(rng.randint(2, 100))
        return gf5

    for i in range(1500):  # 500 per ring family
        ring = ring_for(i)
        a, b, c = _unimodular_triple(ring, rng, a_outside_radical=True)
        y = sr1_quotient_lift(a, b, c)
        assert is_unit(gcd_bezout(a, b + c * y).g)

        a1, a2, a3 = _unimodular_triple(ring, rng, a_outside_radical=False)
        y1, y2 = sr2_reduce(a1, a2, a3)
        assert is_unit(gcd_bezout(a1 + a3 * y1, a2 + a3 * y2).g)
    elapsed = time.monotonic() - start
    _report(
        "lift postconditions on 500 seeded unimodular triples per ring family",
        True,
        elapsed,
        "exact gcd checks over Z, Z/n (n <= 100) and GF(5)[x]",
    )


def test_criterion_finite_predicate_suite():
    start = time.monotonic()
    for n in range(2, 61):
        ring = ModularRing(n)
        for pred in PREDICATES:
            rep = check_finite_predicate(ring, pred)
            assert rep.holds, (n, pred, rep)
    elapsed = time.monotonic() - start
    _report(
        "StableRange1, Clean, PmRing, JStableCondition hold on every Z/n, n <= 60",
        elapsed < 60.0,
        elapsed,
        "exhaustive element scans",
    )


def test_criterion_series_truncation():
    start = time.monotonic()
    ring = TruncatedSeriesRing(8)
    rng = random.Random(808)
    for _ in range(50):
        z0 = rng.choice([v for v in range(-1000, 1001) if v])
        coeffs = [z0] + [
            Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(7)
        ]
        f = ring.element(coeffs)
        g = ring.element([rng.randint(-1000, 1000)] + [0] * 7)
        s_el, t_el = series_adequate_split(f, g)
        assert s_el * t_el == f
    elapsed = time.monotonic() - start
    _report(
        "series splits re-multiply exactly modulo x^8 on 50 seeded instances",
        True,
        elapsed,
    )


def test_criterion_power_property():
    start = time.monotonic()
    rng = random.Random(310)
    for _ in range(100):
        a = rng.randint(1, 100)
        b = rng.randint(1, 100)
        ea, eb = Z.from_int(a), Z.from_int(b)
        sp = adequate_split(ea, eb)
        for n in (2, 3):
            rn = Z.from_int(sp.r.payload**n)
            sn = Z.from_int(sp.s.payload**n)
            assert verify_adequate(ea, eb, rn, sn, n).ok, (a, b, n)
    elapsed = time.monotonic() - start
    _report(
        "powers of adequate splits stay adequate (squares and cubes)",
        True,
        elapsed,
    )
