import hashlib
import itertools
import math
import random
import time
from dataclasses import replace

import pytest

import edr.adequate
import edr.matrices
import edr.reduce
import edr.rings
from edr.adequate import pi_adequate_split_zn, verify_adequate
from edr.errors import EdrError, NotUnimodular, ScaleExceeded, UnsupportedRing
from edr.matrices import RingMatrix
from edr.parsing import parse_ring
from edr.reduce import (
    ReductionCertificate,
    diagonal_reduce,
    hermite_row,
    kaplansky_2x2,
    verify_reduction,
)
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    TruncatedSeriesRing,
    canonical_associate,
    factorize,
    gcd_bezout,
    is_unit,
)
from edr.serialize import dumps, matrix_to_doc, reduction_certificate_to_doc

from oracles import determinantal_divisors, elementary_divisors_oracle, perm_det

Z = IntegerRing()
M12 = ModularRing(12)
GF5 = PrimeFieldPolynomialRing(5)


def _random_matrix(ring, rng, max_dim=5, max_deg=3):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            if isinstance(ring, IntegerRing):
                row.append(ring.from_int(rng.randint(-50, 50)))
            elif isinstance(ring, ModularRing):
                row.append(ring.from_int(rng.randrange(ring.n)))
            else:
                deg = rng.randint(-1, max_deg)
                if deg < 0:
                    row.append(ring.zero)
                else:
                    row.append(
                        ring.element(
                            [rng.randrange(ring.p) for _ in range(deg)]
                            + [rng.randrange(1, ring.p)]
                        )
                    )
        rows.append(row)
    return RingMatrix(ring, rows)


def test_hermite_row_examples():
    d, U = hermite_row(Z.from_int(4), Z.from_int(6))
    assert d == Z.from_int(2)
    assert is_unit(U.det())
    prod = RingMatrix(Z, [[Z.from_int(4), Z.from_int(6)]]) * U
    assert prod.entries[0] == (d, Z.zero)

    d, U = hermite_row(Z.zero, Z.zero)
    assert d == Z.zero and is_unit(U.det())
    assert U == RingMatrix.identity(Z, 2)


def test_hermite_row_modular_example():
    a, b = M12.from_int(8), M12.from_int(6)
    d, U = hermite_row(a, b)
    assert d == M12.from_int(2)
    assert is_unit(U.det())
    prod = RingMatrix(M12, [[a, b]]) * U
    assert prod.entries[0] == (d, M12.zero)
    # exhaustive: some unimodular 2x2 sends (8,6) to (2,0) at all
    found = False
    for p, q, r, s in itertools.product(range(12), repeat=4):
        det = (p * s - q * r) % 12
        if det in (1, 5, 7, 11) and (8 * p + 6 * r) % 12 == 2 and (8 * q + 6 * s) % 12 == 0:
            found = True
            break
    assert found


def test_hermite_row_unsupported():
    S = TruncatedSeriesRing(3)
    with pytest.raises(UnsupportedRing):
        hermite_row(S.one, S.one)


def _diag(cert):
    r = min(cert.D.rows, cert.D.cols)
    return [cert.D.entries[i][i] for i in range(r)]


def test_kaplansky_examples():
    cert = kaplansky_2x2(Z.zero, Z.from_int(3), Z.from_int(5))
    assert _diag(cert) == [Z.one, Z.zero]

    cert = kaplansky_2x2(Z.from_int(3), Z.from_int(5), Z.zero)
    assert _diag(cert) == [Z.one, Z.zero]

    cert = kaplansky_2x2(Z.from_int(4), Z.from_int(3), Z.from_int(9))
    assert _diag(cert) == [Z.one, Z.from_int(36)]
    A = RingMatrix.from_payloads(Z, [[4, 0], [3, 9]])
    assert verify_reduction(A, cert).ok


def test_kaplansky_both_branches_verify():
    # the one construction on a != 0, and on a = 0, where the split of c
    # against 0 leaves r a unit
    rng = random.Random(31)
    trials = 0
    while trials < 60:
        a, b, c = (rng.randint(-20, 20) for _ in range(3))
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        trials += 1
        for a in (a, 0) if math.gcd(b, c) == 1 else (a,):
            A = RingMatrix.from_payloads(Z, [[a, 0], [b, c]])
            cert = kaplansky_2x2(Z.from_int(a), Z.from_int(b), Z.from_int(c))
            rep = verify_reduction(A, cert)
            assert rep.ok, (a, b, c, rep)
            d1, d2 = _diag(cert)
            # determinant is preserved up to units over a domain
            assert is_unit(d1)
            assert d2 == canonical_associate(Z.from_int(a * c))[1]


def test_kaplansky_modular():
    rng = random.Random(33)
    import math

    for n in (12, 16, 36):
        ring = ModularRing(n)
        done = 0
        while done < 40:
            a, b, c = (rng.randrange(n) for _ in range(3))
            if math.gcd(math.gcd(a, b, n), c) != 1:
                continue
            done += 1
            cert = kaplansky_2x2(ring.from_int(a), ring.from_int(b), ring.from_int(c))
            A = RingMatrix.from_payloads(ring, [[a, 0], [b, c]])
            assert verify_reduction(A, cert).ok


@pytest.mark.parametrize("spec", ["Z/8", "Z/12", "Z/36", "Z", "GF(3)[x]"])
def test_kaplansky_auto_verifies_on_every_unimodular_triple(spec):
    # one construction with no fallback; it must verify on every unimodular
    # triple, zeros included (GF(3)[x]: every element of degree <= 1)
    ring = parse_ring(spec)
    if isinstance(ring, ModularRing):
        values = [ring.from_int(v) for v in range(ring.n)]
    elif isinstance(ring, IntegerRing):
        values = [ring.from_int(v) for v in range(-6, 7)]
    else:
        values = [ring.element([u, v]) for u in range(3) for v in range(3)]
    start = time.monotonic()
    count = 0
    for a, b, c in itertools.product(values, repeat=3):
        if not is_unit(gcd_bezout(gcd_bezout(a, b).g, c).g):
            continue
        count += 1
        cert = kaplansky_2x2(a, b, c)
        A = RingMatrix(ring, [[a, ring.zero], [b, c]])
        assert verify_reduction(A, cert).ok, (a, b, c)
    # 3 s for the sets of up to 2,000 triples; Z/36 has 39,312
    assert time.monotonic() - start < max(3.0, 1.5e-3 * count)


def test_kaplansky_over_a_modulus_beyond_factorize():
    # p*q with p the least prime above 2^40 and q the next one: rho gives
    # up on it, and the 2x2 step does not need its primes
    p, q = 1099511627791, 1099511627803
    ring = ModularRing(p * q)
    with pytest.raises(ScaleExceeded):
        factorize(p * q)
    for a, b, c in [(6 * p, 4, 10 * q), (0, p, q), (p, q, p * 3), (5, 0, q)]:
        start = time.monotonic()
        cert = kaplansky_2x2(ring.from_int(a), ring.from_int(b), ring.from_int(c))
        assert time.monotonic() - start < 0.1
        A = RingMatrix.from_payloads(ring, [[a, 0], [b, c]])
        assert verify_reduction(A, cert).ok, (a, b, c)
        assert _diag(cert)[0] == ring.one


def test_kaplansky_never_factors_the_modulus(monkeypatch, prime_pair_128):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    # the pi-split takes its exponent from gcds: factorize is not even imported
    assert not hasattr(edr.adequate, "factorize")
    monkeypatch.setattr(edr.rings, "factorize", refuse)
    rng, split_rng = random.Random(37), random.Random(38)
    for n in (12, 360, 2**20 * 3**5, 1001 * 1001, prime_pair_128[0] * prime_pair_128[1]):
        ring = ModularRing(n)
        done = 0
        while done < 20:
            a, b, c = (rng.choice([0, 1, rng.randrange(n), rng.randrange(n) * 6]) % n for _ in range(3))
            if math.gcd(math.gcd(a, b, n), c) != 1:
                continue
            done += 1
            cert = kaplansky_2x2(ring.from_int(a), ring.from_int(b), ring.from_int(c))
            A = RingMatrix.from_payloads(ring, [[a, 0], [b, c]])
            assert verify_reduction(A, cert).ok, (n, a, b, c)
        for a, b in [(0, 0), (1, n - 1), (6, 4), (split_rng.randrange(n), split_rng.randrange(n) * 6 % n)]:
            a_el, b_el = ring.from_int(a), ring.from_int(b)
            sp = pi_adequate_split_zn(a_el, b_el)
            assert verify_adequate(a_el, b_el, sp.r, sp.s, sp.m).ok, (n, a, b)


def test_kaplansky_not_unimodular():
    with pytest.raises(NotUnimodular):
        kaplansky_2x2(Z.from_int(2), Z.from_int(4), Z.from_int(6))


# sha256 over the 2x2 certificate documents of seeded triples, refusals
# included as "code: message", joined in order. Zeros are drawn often, so
# both the c = 0 branch and the split of c against a = 0 are covered.
PINNED_KAPLANSKY = {
    "Z": "7e87a057c82a994442fccbc6820ed788feb5f82b30ed3e7bbef4f73ef1b84f7d",
    "Z/36": "0a1d56c3b33a155041e76b27f54c71c071f89740177ff866c765a6a961b95719",
    "Z/360": "7ef29941cbddbb043212fa9fdc8f5bc7f70f5782d11deb02990fa203deffa4b2",
}


@pytest.mark.parametrize("spec", sorted(PINNED_KAPLANSKY))
def test_kaplansky_certificates_are_pinned(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"kaplansky-pin/{spec}")
    digest = hashlib.sha256()
    for _ in range(80):
        if isinstance(ring, ModularRing):
            a, b, c = (ring.from_int(rng.choice([0, 1, 2]) and rng.randrange(ring.n)) for _ in range(3))
        else:
            a, b, c = (ring.from_int(rng.choice([0, 1, 2]) and rng.randint(-30, 30)) for _ in range(3))
        try:
            text = dumps(reduction_certificate_to_doc(ring, kaplansky_2x2(a, b, c)))
        except EdrError as exc:
            text = f"{exc.code}: {exc.message}\n"
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_KAPLANSKY[spec]


def test_diagonal_reduce_examples():
    A = RingMatrix.from_payloads(Z, [[2, 4], [6, 8]])
    cert = diagonal_reduce(A)
    assert _diag(cert) == [Z.from_int(2), Z.from_int(4)]
    assert verify_reduction(A, cert).ok

    I2 = RingMatrix.identity(Z, 2)
    cert = diagonal_reduce(I2)
    assert _diag(cert) == [Z.one, Z.one]
    assert verify_reduction(I2, cert).ok

    x = GF5.element([0, 1])
    A = RingMatrix(GF5, [[x, GF5.zero], [GF5.one, x]])
    cert = diagonal_reduce(A)
    assert _diag(cert) == [GF5.one, GF5.element([0, 0, 1])]
    assert verify_reduction(A, cert).ok


def test_diagonal_reduce_rectangular_and_zero():
    A = RingMatrix.from_payloads(Z, [[0, 0, 0]])
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    assert _diag(cert) == [Z.zero]

    A = RingMatrix.from_payloads(Z, [[6], [4], [10]])
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    assert _diag(cert) == [Z.from_int(2)]


def test_determinantal_divisor_examples():
    A = RingMatrix.from_payloads(Z, [[2, 4], [6, 8]])
    assert determinantal_divisors(A) == [Z.from_int(2), Z.from_int(8)]
    assert elementary_divisors_oracle(A) == [Z.from_int(2), Z.from_int(4)]

    I3 = RingMatrix.identity(Z, 3)
    assert determinantal_divisors(I3) == [Z.one, Z.one, Z.one]

    zeros = RingMatrix.from_payloads(Z, [[0, 0], [0, 0]])
    assert determinantal_divisors(zeros) == [Z.zero, Z.zero]


def test_determinantal_divisor_guards():
    big = RingMatrix.identity(Z, 7)
    with pytest.raises(ScaleExceeded):
        determinantal_divisors(big)
    with pytest.raises(UnsupportedRing):
        determinantal_divisors(RingMatrix.identity(M12, 2))


def test_verify_reduction_round_trip_and_tampers():
    A = RingMatrix.from_payloads(Z, [[2, 4], [6, 8]])
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok

    tampered_D = RingMatrix.from_payloads(Z, [[2, 0], [0, 5]])
    bad = ReductionCertificate(cert.P, tampered_D, cert.Q, cert.detP_unit, cert.detQ_unit)
    rep = verify_reduction(A, bad)
    assert not rep.ok and "PAQ=D" in rep.failures

    scaled_P = RingMatrix(Z, [[e * 2 for e in row] for row in cert.P.entries])
    bad = ReductionCertificate(scaled_P, cert.D, cert.Q, cert.detP_unit, cert.detQ_unit)
    rep = verify_reduction(A, bad)
    assert not rep.ok and "det(P) unit" in rep.failures

    swapped = RingMatrix.from_payloads(Z, [[4, 0], [0, 2]])
    bad = ReductionCertificate(cert.P, swapped, cert.Q, cert.detP_unit, cert.detQ_unit)
    rep = verify_reduction(A, bad)
    assert not rep.ok and "divisibility chain" in rep.failures


def _tamper_column(cert):
    return replace(cert, Q=RingMatrix(Z, [[row[0] * 2, *row[1:]] for row in cert.Q.entries]))


def _tamper_off_diagonal(cert):
    D = cert.D.entries
    return replace(cert, D=RingMatrix(Z, [[D[0][0], Z.one], list(D[1])]))


@pytest.mark.parametrize(
    "tamper, failures",
    [
        (lambda cert: replace(cert, P=RingMatrix.identity(Z, 3)), ("shapes consistent",)),
        (lambda cert: replace(cert, detP_unit=-cert.detP_unit), ("detP recorded",)),
        (lambda cert: replace(cert, detQ_unit=-cert.detQ_unit), ("detQ recorded",)),
        (_tamper_column, ("PAQ=D", "det(Q) unit", "detQ recorded")),
        (_tamper_off_diagonal, ("PAQ=D", "D diagonal")),
    ],
    ids=["P 3x3", "detP negated", "detQ negated", "Q column doubled", "D off-diagonal"],
)
def test_verify_reduction_names_each_tampered_clause(tamper, failures):
    A = RingMatrix.from_payloads(Z, [[2, 4], [6, 8]])
    rep = verify_reduction(A, tamper(diagonal_reduce(A)))
    assert not rep.ok and rep.failures == failures


# The identity path: over a domain with det A != 0, verify_reduction takes
# det P from det P * det A * det Q = d_1 * ... * d_n, not from Bareiss on P.
# Every tamper must name exactly what Bareiss on P names: the reference run
# replaces the identity with Bareiss on P.
IDENTITY_RINGS = [Z, GF5, ProductRing([Z, GF5])]


def _non_unit(ring):
    """2 over Z, x over GF(5)[x], componentwise over a product."""
    if isinstance(ring, ProductRing):
        return ring.element([_non_unit(f) for f in ring.factors])
    return ring.from_int(2) if isinstance(ring, IntegerRing) else ring.element([0, 1])


def _entry(ring, rng):
    if isinstance(ring, ProductRing):
        return ring.element([_entry(f, rng) for f in ring.factors])
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.randint(-9, 9))
    return ring.element([rng.randrange(5) for _ in range(rng.randint(0, 2))])


def _scale_row(M, k, s):
    return RingMatrix(M.ring, [[e * s for e in row] if i == k else row for i, row in enumerate(M.entries)])


def _identity_tampers(ring):
    """(name, A, tampered certificate, the clauses it must name)."""
    rng = random.Random(f"identity/{ring}")
    while True:
        A = RingMatrix(ring, [[_entry(ring, rng) for _ in range(4)] for _ in range(4)])
        if not A.det().is_zero():
            break
    cert = diagonal_reduce(A)
    s = _non_unit(ring)
    D2 = RingMatrix(ring, [[ring.one, ring.one], [ring.from_int(2), ring.one]])  # det -1, d_1 * d_2 = 1
    I2 = RingMatrix.identity(ring, 2)
    return [
        ("detP negated", A, replace(cert, detP_unit=-cert.detP_unit), ("detP recorded",)),
        ("P row scaled", A, replace(cert, P=_scale_row(cert.P, 1, s)), ("PAQ=D", "det(P) unit", "detP recorded")),
        (
            "P and D row scaled",  # P*A*Q = D still holds and D is diagonal
            A,
            replace(cert, P=_scale_row(cert.P, 3, s), D=_scale_row(cert.D, 3, s)),
            ("det(P) unit", "detP recorded"),
        ),
        (
            # P*A*Q = D holds, but D is not diagonal, so d_1 * d_2 is not
            # det D: the identity would take the recorded -1 for det P = 1
            "D off-diagonal",
            D2,
            ReductionCertificate(I2, D2, I2, -ring.one, ring.one),
            ("detP recorded", "D diagonal"),
        ),
    ]


@pytest.mark.parametrize("ring", IDENTITY_RINGS, ids=str)
def test_identity_path_names_what_bareiss_on_p_names(ring, monkeypatch):
    cases = _identity_tampers(ring)
    A = cases[0][1]
    assert verify_reduction(A, diagonal_reduce(A)).ok
    got = {name: verify_reduction(A, cert).failures for name, A, cert, _ in cases}
    monkeypatch.setattr(edr.reduce, "_det_from_identity", lambda ring, P, *_: edr.reduce._det(ring, P))
    for name, A, cert, failures in cases:
        assert got[name] == failures, name
        assert verify_reduction(A, cert).failures == failures, name


def _count_cores(monkeypatch, kernel):
    """Record the size of each core that `kernel`, the determinant's
    elimination (_bareiss, or _zn_det over Z/n), is called on."""
    calls = []
    eliminate = getattr(edr.matrices, kernel)
    monkeypatch.setattr(edr.matrices, kernel, lambda a, arg: calls.append(len(a)) or eliminate(a, arg))
    return calls


@pytest.mark.parametrize("spec", ["Z", "Z/360"])
def test_verify_runs_bareiss_on_p_only_off_the_domains(spec, monkeypatch):
    ring = parse_ring(spec)
    rng = random.Random(13)
    draw = (lambda: rng.randint(-9, 9)) if spec == "Z" else (lambda: rng.randrange(360))
    A = RingMatrix.from_payloads(ring, [[draw() for _ in range(12)] for _ in range(12)])
    cert = diagonal_reduce(A)
    calls = _count_cores(monkeypatch, "_bareiss" if spec == "Z" else "_zn_det")
    cert.P.det()
    on_p = calls[:]
    assert on_p  # P keeps a core after peeling (10 rows over Z, 2 over Z/360)
    calls.clear()
    assert verify_reduction(A, cert).ok
    in_verify = sorted(calls)
    calls.clear()
    cert.Q.det()
    if isinstance(ring, IntegerRing):
        A.det()
        assert in_verify == sorted(calls)  # det A and det Q's core, not P
    else:
        assert in_verify == sorted(calls + on_p)  # det Q's core and det P


def test_verify_reduction_non_canonical_diag():
    A = RingMatrix.from_payloads(Z, [[2]])
    cert = diagonal_reduce(A)
    negated_P = RingMatrix(Z, [[-e for e in row] for row in cert.P.entries])
    negated_D = RingMatrix(Z, [[-e for e in row] for row in cert.D.entries])
    bad = ReductionCertificate(negated_P, negated_D, cert.Q, -cert.detP_unit, cert.detQ_unit)
    rep = verify_reduction(A, bad)
    assert not rep.ok and "canonical associates" in rep.failures


def test_reduce_matches_oracle_on_random_integer_matrices():
    rng = random.Random(101)
    for _ in range(60):
        A = _random_matrix(Z, rng)
        cert = diagonal_reduce(A)
        assert verify_reduction(A, cert).ok
        assert _diag(cert) == elementary_divisors_oracle(A)


@pytest.mark.parametrize("p", [2, 5, 7])
def test_reduce_matches_oracle_over_gfp(p):
    ring = PrimeFieldPolynomialRing(p)
    rng = random.Random(400 + p)
    for _ in range(30):
        A = _random_matrix(ring, rng, max_dim=4)
        cert = diagonal_reduce(A)
        assert verify_reduction(A, cert).ok
        assert _diag(cert) == elementary_divisors_oracle(A)


@pytest.mark.parametrize("n", [12, 16, 36])
def test_reduce_verifies_over_modular(n):
    ring = ModularRing(n)
    rng = random.Random(500 + n)
    for _ in range(60):
        A = _random_matrix(ring, rng)
        cert = diagonal_reduce(A)
        assert verify_reduction(A, cert).ok


def test_reduce_product_ring():
    ring = ProductRing([Z, ModularRing(6)])
    rng = random.Random(77)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = RingMatrix(
            ring,
            [
                [ring.element((rng.randint(-9, 9), rng.randrange(6))) for _ in range(n)]
                for _ in range(m)
            ],
        )
        cert = diagonal_reduce(A)
        assert verify_reduction(A, cert).ok


def test_reduce_is_idempotent_on_its_output():
    rng = random.Random(55)
    for ring in (Z, M12, GF5):
        for _ in range(15):
            A = _random_matrix(ring, rng, max_dim=4)
            cert = diagonal_reduce(A)
            again = diagonal_reduce(cert.D)
            assert again.D == cert.D


def test_reduce_unsupported_over_series():
    S = TruncatedSeriesRing(3)
    with pytest.raises(UnsupportedRing):
        diagonal_reduce(RingMatrix(S, [[S.one]]))


def test_matrix_det_against_leibniz():
    rng = random.Random(88)
    for n in range(1, 5):
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            M = RingMatrix.from_payloads(Z, rows)
            assert M.det().payload == perm_det(rows)


# sha256 over the certificate documents of the seeded matrices below, joined
# in order, so any change to P, D, Q or the recorded determinants shows up
# here. All four were re-recorded when the sweep's Bezout-block fallback gave
# way to division with remainder: P and Q changed by design, and
# PINNED_DIAGONALS below shows that D did not.
PINNED_DOCUMENTS = {
    "Z": "7e691fc5ad6e08246722b0615d4d9e2e96d02528fe45a88ddee98cce090527a4",
    "Z/360": "59f8fada43a493a99722e5a1927b1f33955229886acfbfc34791f14a5043b6f1",
    "GF(5)[x]": "c1aa2e898b7b0a56d8d797089321bccce32832868ab98faba62af1c7205e86a1",
    "prod(Z,Z/12)": "ebb0fc2583d84b70b8eccba1c6490c61be37d0f930b1f60890d09c9315ef78cb",
}
_PIN_SHAPES = [(1, 1), (1, 4), (4, 1), (3, 5), (5, 3), (6, 6), (7, 7), (8, 8)]


def _pin_entry(ring, rng):
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.randint(-9, 9))
    if isinstance(ring, ModularRing):
        return ring.from_int(rng.randrange(ring.n))
    if isinstance(ring, PrimeFieldPolynomialRing):
        return ring.element([rng.randrange(ring.p) for _ in range(rng.randint(0, 4))])
    return ring.element(tuple(_pin_entry(f, rng) for f in ring.factors))


@pytest.mark.parametrize("spec", sorted(PINNED_DOCUMENTS))
def test_certificate_documents_are_pinned(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"pin/{spec}")
    digest = hashlib.sha256()
    for m, n in _PIN_SHAPES:
        A = RingMatrix(ring, [[_pin_entry(ring, rng) for _ in range(n)] for _ in range(m)])
        cert = diagonal_reduce(A)
        digest.update(dumps(reduction_certificate_to_doc(ring, cert)).encode())
    assert digest.hexdigest() == PINNED_DOCUMENTS[spec]


# sha256 over D alone for the same seeded matrices; D must not depend on the
# reduction path. Z/360, Z/12 and prod(Z,Z/12) were recorded while Z/n still
# reduced through a lift to Z, Z and GF(5)[x] while the sweep still fell back
# to a Bezout block whenever the pivot did not divide an entry.
PINNED_DIAGONALS = {
    "Z": "39d118dc9d35789958fef6b4f229722d2e8206c49158fb3eb6f6346dd4b30986",
    "GF(5)[x]": "5c74c6d7c9c666a02ff657fc17d33de262694c6f838bec51df09e0f0e36d1c41",
    "Z/360": "010a587c4bea07c466dfaf470a68c66284d5ec7ad0bbc712538b061c87d24f0d",
    "Z/12": "ccef12cc14f4e3a92786c9bd0a443309a160276fb6be67f2c454afddf23d219b",
    "prod(Z,Z/12)": "e20b33ae879c107d04ee293eacf53da28ad9881196eee20307a74dd91e2c83cc",
}


@pytest.mark.parametrize("spec", sorted(PINNED_DIAGONALS))
def test_diagonals_are_pinned(spec):
    ring = parse_ring(spec)
    rng = random.Random(f"pin/{spec}")
    digest = hashlib.sha256()
    for m, n in _PIN_SHAPES:
        A = RingMatrix(ring, [[_pin_entry(ring, rng) for _ in range(n)] for _ in range(m)])
        digest.update(dumps(matrix_to_doc(diagonal_reduce(A).D)).encode())
    assert digest.hexdigest() == PINNED_DIAGONALS[spec]


# Diagonal inputs the sweep leaves as they are, with a broken chain, and the
# Smith form the chain repair must reach; none of the pinned matrices above
# reaches the repair.
CHAIN_CASES = [
    ("Z", [2, 3], [1, 6]),
    ("Z", [4, 6, 10], [2, 2, 60]),
    ("Z", [-38, -17], [1, 646]),  # one row addition and pivot step leave diag(-2, 323)
    ("Z/360", [8, 9], [1, 72]),
    ("Z/360", [5, 114], [1, 30]),  # one leaves diag(2, 285)
    ("Z/12", [4, 6], [2, 0]),
    ("GF(5)[x]", [[0, 1], [1, 1]], [[1], [0, 1, 1]]),
    ("prod(Z,Z/12)", [(2, 2), (3, 3)], [(1, 1), (6, 6)]),
]

# sha256 over the certificate documents of CHAIN_CASES, per ring, joined in
# order. PINNED_DOCUMENTS cannot see the chain repair, so this group pins P
# and Q where it fires. Recorded when the repair gave up its Bezout column
# block for the sweep's own pivot step: P and Q changed then, D did not.
PINNED_CHAIN_DOCUMENTS = {
    "Z": "ade49ea93f3f1acb7d8c8c6414756dbcd073bcbc0907ee1b8e7d4c8b1ca299bf",
    "Z/360": "985a68678157249c8b1fe37866befd7b40c6f1994c3b54eb14a18627bc1296b6",
    "Z/12": "66e1fc7c6599fb56d4d6a2e2947a7f721e11c572e498512832ac1082fec6a513",
    "GF(5)[x]": "249c56fefa2e8996872ce78770840dbb4cc2a65ea19a57606128bdd1dbdd9777",
    "prod(Z,Z/12)": "1a502863f993f479505a47167ffd7fb05b94a253a8983cdd64570036556ee0bb",
}


def _diagonal(ring, payloads):
    zero = ring.ops.zero
    n = len(payloads)
    return RingMatrix.from_payloads(ring, [[v if i == j else zero for j in range(n)] for i, v in enumerate(payloads)])


@pytest.mark.parametrize("spec, diag, smith", CHAIN_CASES)
def test_chain_repair_reaches_the_smith_form(spec, diag, smith):
    ring = parse_ring(spec)
    A = _diagonal(ring, diag)
    cert = diagonal_reduce(A)
    assert cert.D == _diagonal(ring, smith)
    assert verify_reduction(A, cert).ok


@pytest.mark.parametrize("spec", sorted(PINNED_CHAIN_DOCUMENTS))
def test_chain_repair_documents_are_pinned(spec):
    ring = parse_ring(spec)
    digest = hashlib.sha256()
    for case_spec, diag, _ in CHAIN_CASES:
        if case_spec == spec:
            cert = diagonal_reduce(_diagonal(ring, diag))
            digest.update(dumps(reduction_certificate_to_doc(ring, cert)).encode())
    assert digest.hexdigest() == PINNED_CHAIN_DOCUMENTS[spec]


@pytest.mark.parametrize("ring, values", [(ModularRing(36), range(36)), (Z, range(-12, 13))], ids=["Z/36", "Z"])
def test_every_2x2_diagonal_reduces_and_verifies(ring, values):
    for a, b in itertools.product(values, repeat=2):
        A = _diagonal(ring, [a, b])
        assert verify_reduction(A, diagonal_reduce(A)).ok, (a, b)


def _refuse_bezout(patch, ring):
    """Make every Bezout gcd of `ring`'s tables, or its factors', raise."""
    if isinstance(ring, ProductRing):
        for factor in ring.factors:
            _refuse_bezout(patch, factor)
        return

    def no_bezout(a, b):
        raise AssertionError(f"Bezout gcd over {ring}")

    patch.setattr(ring, "ops", ring.ops._replace(bezout=no_bezout))


def test_diagonal_reduce_makes_no_bezout_call(monkeypatch):
    cases = [(parse_ring(spec), diag) for spec, diag, _ in CHAIN_CASES]
    rng = random.Random("no-bezout")
    dense = [_dense(ring, rng, n) for ring in (Z, ModularRing(360), GF5) for n in (3, 6, 9)]
    matrices = [_diagonal(ring, diag) for ring, diag in cases] + dense
    with monkeypatch.context() as patch:
        for A in matrices:
            _refuse_bezout(patch, A.ring)
        certs = [diagonal_reduce(A) for A in matrices]
    for A, cert in zip(matrices, certs):
        assert verify_reduction(A, cert).ok


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reduce_modular_30x30_is_fast(seed):
    # Z/n entries stay below n throughout the sweep, so nothing grows with
    # the size of the matrix but the number of ring operations
    ring = ModularRing(360)
    rng = random.Random(seed)
    A = RingMatrix.from_payloads(ring, [[rng.randrange(360) for _ in range(30)] for _ in range(30)])
    start = time.monotonic()
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    assert time.monotonic() - start < 1.0


# P and Q stay small only while the sweep eliminates by division with
# remainder: a Bezout block on every inexact entry left P/Q entries of
# millions of bits on dense Z 40x40 and up to 1541 coefficients on
# GF(5)[x] 12x12.


def _dense_entry(ring, rng):
    """The benchmark's dense entries: Z in [-9, 9], Z/n uniform, GF(p)[x]
    of exact degree 3."""
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.randint(-9, 9))
    if isinstance(ring, ModularRing):
        return ring.from_int(rng.randrange(ring.n))
    return ring.element([rng.randrange(ring.p) for _ in range(3)] + [rng.randrange(1, ring.p)])


def _dense(ring, rng, n):
    return RingMatrix(ring, [[_dense_entry(ring, rng) for _ in range(n)] for _ in range(n)])


def _largest_transform_entry(cert, size):
    return max(size(e.payload) for M in (cert.P, cert.Q) for row in M.entries for e in row)


def test_dense_integer_40x40_stays_small_and_fast():
    A = _dense(Z, random.Random(40), 40)
    start = time.monotonic()
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    assert time.monotonic() - start < 5.0
    assert _largest_transform_entry(cert, lambda v: abs(v).bit_length()) < 4000


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_dense_gf5_12x12_transforms_stay_short(seed):
    A = _dense(GF5, random.Random(seed), 12)
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    assert _largest_transform_entry(cert, len) < 200


def test_gf5_8x8_that_once_grew_to_394_coefficients():
    # the ninth GF(5)[x] 8x8 matrix drawn from this stream after the Z,
    # Z/360 and smaller GF(5)[x] matrices of the certify-dense mix
    rng = random.Random("certify-dense/14")
    for ring, n, count in ((Z, 12, 16), (ModularRing(360), 10, 12), (ModularRing(360), 12, 6), (GF5, 6, 6),
                           (GF5, 7, 6), (GF5, 8, 8)):
        for _ in range(count):
            _dense(ring, rng, n)
    A = _dense(GF5, rng, 8)
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    assert _largest_transform_entry(cert, len) < 120


# psi_13 = P13 * Q13 passes every Miller-Rabin base is_prime uses
P13, Q13 = 1287836182261, 2575672364521


def test_gf_from_psi13_up_is_refused_before_any_primality_test(monkeypatch):
    # GF(psi_13)[x] used to be built, and reducing [[P13], [1]] over it
    # raised ValueError from the division by the non-unit P13
    import edr.rings

    def no_primality_test(n):
        raise AssertionError("is_prime ran")

    with monkeypatch.context() as patch:
        patch.setattr(edr.rings, "is_prime", no_primality_test)
        for p in (P13 * Q13, 2**89 - 1, 10**5000 + 1):
            with pytest.raises(ScaleExceeded):
                PrimeFieldPolynomialRing(p)
    ring = PrimeFieldPolynomialRing(3317044064679887385961813)  # the largest prime below psi_13
    A = RingMatrix.from_payloads(ring, [[[P13]], [[1]]])
    assert verify_reduction(A, diagonal_reduce(A)).ok


def _counted_ops(ring, monkeypatch, events):
    """Install on `ring` a copy of its op table whose div and comb append
    ("div", q, r) and ("comb", b) to events; returns the original table."""
    ops = ring.ops

    def div(a, b):
        q, r = ops.div(a, b)
        events.append(("div", q, r))
        return q, r

    def comb(a, xs, b, ys):
        events.append(("comb", b))
        return ops.comb(a, xs, b, ys)

    owner = type(ring) if isinstance(ring, IntegerRing) else ring  # Z's table is a class attribute
    monkeypatch.setattr(owner, "ops", ops._replace(div=div, comb=comb))
    return ops


@pytest.mark.parametrize("ring, n, seed", [(PrimeFieldPolynomialRing(5), 6, 41), (IntegerRing(), 8, 21)])
def test_a_row_step_is_one_comb_on_the_augmented_rows(ring, n, seed, monkeypatch):
    # P rides in A's row steps ([A | P] is reduced as one matrix): every comb
    # directly follows the div it acts on, a row step's with the nonzero
    # quotient it subtracts, a chain repair's with a nonzero remainder (it
    # adds the next row: b = -1), so no div is followed by two combs; the
    # seeds are ones whose reduction runs the chain repair
    rng = random.Random(seed)
    if isinstance(ring, IntegerRing):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[[rng.randrange(5) for _ in range(rng.randint(0, 3))] for _ in range(n)] for _ in range(n)]
    A = RingMatrix.from_payloads(ring, rows)
    events = []
    ops = _counted_ops(ring, monkeypatch, events)
    cert = diagonal_reduce(A)
    monkeypatch.undo()
    assert verify_reduction(A, cert).ok
    minus_one, row_steps, repairs = ops.neg(ops.one), 0, 0
    for before, event in zip([("start",)] + events, events):
        if event[0] == "comb":
            assert before[0] == "div", "a comb that follows no div: two calls for one step"
            _, q, r = before
            if q and event[1] == q:
                row_steps += 1
            else:
                assert r and event[1] == minus_one, (before, event)
                repairs += 1
    assert row_steps > 0 and repairs > 0
