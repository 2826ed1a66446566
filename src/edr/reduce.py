"""Diagonal reduction with invertibility certificates.

The workhorse is a sweep with one elimination rule, Euclid's (Kannan &
Bachem, SIAM J. Comput. 8(4), 1979): divide each entry below the pivot by
the pivot with remainder, subtract the quotient times the pivot row, and
swap the smallest nonzero remainder into the pivot slot; repeat until the
pivot divides its column, then do the same along its row. The division is
the ring's PayloadOps.div, whose remainder is smaller than the divisor in
the ring's size: |a| over Z (the quotient is rounded, so |r| <= |b|/2), the
number of coefficients over GF(p)[x], and gcd(a, n) over Z/n (r = a mod
gcd(b, n), so gcd(r, n) <= r < gcd(b, n)). Every new pivot is a remainder
of the one before, so the pivot's size strictly falls and the sweep
terminates. One sweep serves Z, GF(p)[x] and Z/n with no branch on the
ring.

A final pass repairs the divisibility chain d_i | d_{i+1} with the same
pivot step. Where d_i does not divide d_{i+1}, it adds row i+1 to row i and
settles pivot i again from the nonzero entries of row i, until d_i divides
d_{i+1}; over Z/n d_i can be 0, and Z/12 diag(4, 6) goes to diag(2, 0).
Each round lowers the size of a nonzero d_i and makes a zero one nonzero,
so the repeat ends, and every step keeps the ideal (d_i, d_{i+1}), which
the final d_i therefore generates. Each repair thus replaces (d_i) by a
strictly larger ideal and leaves d_1, ..., d_{i-1} as they are, so the
tuple of diagonal ideals rises lexicographically; Z/n has finitely many
ideals and Z and GF(p)[x] are Noetherian, so the pass terminates. Then
each diagonal entry is normalized to its canonical associate, absorbing
units into P.

Products reduce componentwise: a product's Smith form is the tuple of its
components' forms. _reduce recurses on the factors' payload rows and zips
the components' P, D, Q and determinants back together. A direct sweep
over prod(Z,Z/12) verifies too, but it ran 2-4x slower, and its Z part
loses the Euclidean size control.

The sweep, the chain repair and the normalization work on lists of raw
payloads through the ring's PayloadOps table (rings.py). Elements appear
only at the API boundary: diagonal_reduce unwraps A once and wraps P, D, Q
and the two recorded determinants once, on the way out. A row step is one
call of the table's row kernel comb for each matrix it changes. In the
column phase the pivot is the only nonzero entry of its column of A (the
rows below were cleared first, and the rows above belong to finished
pivots), so subtracting q times the pivot column from column j changes A
in the pivot row alone, where the entry becomes div's remainder. On Q the
same step is a row step on Q's transpose, which diagonal_reduce holds from
the sweep to the end of the chain repair.

No determinant is computed while a certificate is built: every step applied
to P and Q has a known determinant, and the construction multiplies them up
as it goes. A row or column swap, in the sweep or in the chain repair,
contributes -1; adding a multiple of one row or column to another
contributes 1; scaling a row of P by a unit u^-1 contributes u^-1. Products
pair up the component values, and the 2x2 step uses the closed forms of its
transforms. The recorded values are checked to be units before a
certificate is returned.

kaplansky_2x2 is the paper's 2x2 step, a standalone utility that
diagonal_reduce does not call. For a matrix [[a,0],[b,c]] with unimodular
(a,b,c) it splits c against a (adequate.lifted_split, which over Z/n splits
gcd(c, n) on Z and factors nothing), writes 1 as a combination of the
unimodular pair the split yields (rings.ideal_combination), and lands on
diag(1, ac) up to a unit.

verify_reduction re-multiplies P*A*Q on payloads and recomputes det Q. It
takes det P from det P * det A * det Q = d_1 * ... * d_n once P*A*Q = D has
passed with D diagonal and A square, over a domain (Z, GF(p)[x], or such a
product factor) where det A is not 0 and det Q is a unit: there the test
proves the recorded det P, and det A, with A's short entries, is far
cheaper than det P. Anywhere else, det P is taken on P. The verifier
calls no construction code; it is the ground truth for every certificate
this module emits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .adequate import lifted_split
from .errors import NotUnimodular, PostconditionFailed, UnsupportedRing
from .matrices import RingMatrix, _det, _matmul
from .report import CheckReport
from .rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    RingElement,
    canonical_associate,
    exact_quotient,
    gcd_bezout,
    ideal_combination,
    is_unit,
)

__all__ = [
    "ReductionCertificate",
    "hermite_row",
    "kaplansky_2x2",
    "diagonal_reduce",
    "verify_reduction",
]


@dataclass(frozen=True)
class ReductionCertificate:
    """P*A*Q = D with P, Q invertible, D diagonal with d_i | d_{i+1} and
    every d_i canonical.

    detP_unit and detQ_unit are det(P) and det(Q), units of the ring. The
    construction records them from the determinants of the steps it applies
    (see the module docstring) and checks only that they are units;
    verify_reduction recomputes det Q from Q, proves det P from P or from
    the determinant identity (see there), and compares."""

    P: RingMatrix
    D: RingMatrix
    Q: RingMatrix
    detP_unit: RingElement
    detQ_unit: RingElement


def _make_certificate(ring, P, D, Q, detP, detQ) -> ReductionCertificate:
    """P, D and Q are payload rows; detP and detQ are the payloads of the
    determinants the construction recorded."""
    detP, detQ = RingElement(ring, detP), RingElement(ring, detQ)
    if not (is_unit(detP) and is_unit(detQ)):
        raise PostconditionFailed("transform lost invertibility")
    return ReductionCertificate(
        RingMatrix.wrap(ring, P), RingMatrix.wrap(ring, D), RingMatrix.wrap(ring, Q), detP, detQ
    )


# ---------------------------------------------------------------------------
# 1x2 and 2x2 steps


def hermite_row(a: RingElement, b: RingElement):
    """(d, U) with (a b)*U = (d 0) and det(U) = 1, straight from the Bezout
    witness: U = [[x, -b1], [y, a1]]."""
    bd = gcd_bezout(a, b)
    ring = a.ring
    U = RingMatrix(ring, [[bd.x, -bd.b1], [bd.y, bd.a1]])
    return bd.g, U


def kaplansky_2x2(a: RingElement, b: RingElement, c: RingElement):
    """Certificate reducing [[a,0],[b,c]] to diag(1, ac) up to a unit.

    Requires aR + bR + cR = R. Let c = r*s be the split of c against a (r
    is coprime to a and every prime dividing s divides a; with a = 0, r is
    a unit). A prime p dividing both t = a + b*r and c*r divides r or s.
    If p | r then p does not divide a, and t = a mod p is not 0. If p | s
    then p | a, so p | b*r and p | b, and (a, b, c) is not unimodular. So
    (t, c*r) is unimodular.

    Over Z/n the split is lifted_split's, of gcd(c, n) on Z against the
    lift of a, with r mapped back to Z/n: it has the same prime properties
    (see there), so the argument above goes through unchanged.
    """
    ring = a.ring
    if not isinstance(ring, (IntegerRing, PrimeFieldPolynomialRing, ModularRing)):
        raise UnsupportedRing(f"no adequate-split capability over {ring}")
    one, zero = ring.one, ring.zero
    if ideal_combination([a, b, c], one) is None:
        raise NotUnimodular("gcd(a, b, c) is not a unit")

    # both pairs below are unimodular: (a, b) as c = 0, (t, c*r) as shown above
    if c.is_zero():  # zero has no split
        p, q = ideal_combination([a, b], one)
        P = [[p, q], [-b, a]]  # det p*a + q*b = 1
        Q = [[one, zero], [zero, one]]
    else:
        r = ring.element(lifted_split(c, a).r.payload)
        t = a + b * r
        x, y = ideal_combination([t, c * r], one)
        lower = -(b * x + c * y)
        P = [[one, r], [lower, one + lower * r]]  # [[1,0],[lower,1]] * [[1,r],[0,1]]
        Q = [[x, -(c * r)], [y, t]]  # det x*t + y*c*r = 1
    P, Q = ([[v.payload for v in row] for row in M] for M in (P, Q))
    D = _matmul(ring, _matmul(ring, P, [[a.payload, zero.payload], [b.payload, c.payload]]), Q)
    if D[0][1] or D[1][0]:
        raise PostconditionFailed("2x2 step failed to diagonalize")
    detP = _normalize_diagonal(ring.ops, D, P)  # both transforms above have det 1
    # the chain holds by construction: d1 is the unit 1, which divides d2
    return _make_certificate(ring, P, D, Q, detP, one.payload)


# ---------------------------------------------------------------------------
# full reduction


def _pivot(ops, A, P, Qt, k, cells, detP, detQ):
    """Settle pivot k of the payload rows A in place: swap the smallest
    candidate cell into the pivot slot and divide its column, then its row,
    with remainder; the remainders are the next candidates. Rows k.. of A
    must be zero left of column k, rows above k zero from column k on.
    Returns the payloads detP and detQ negated once per row or column swap."""
    m, n = len(A), len(A[0])
    while cells:
        bi, bj = min(cells, key=lambda ij: ops.size(A[ij[0]][ij[1]]))
        if bi != k:
            A[k], A[bi] = A[bi], A[k]
            P[k], P[bi] = P[bi], P[k]
            detP = ops.neg(detP)
        if bj != k:
            for row in A:
                row[k], row[bj] = row[bj], row[k]
            Qt[k], Qt[bj] = Qt[bj], Qt[k]
            detQ = ops.neg(detQ)
        pivot = A[k][k]
        for i in range(k + 1, m):
            q = ops.div(A[i][k], pivot)[0]
            if q:
                A[i][k:] = ops.comb(ops.one, A[i][k:], q, A[k][k:])
                P[i] = ops.comb(ops.one, P[i], q, P[k])
        cells = [(i, k) for i in range(k + 1, m) if A[i][k]]
        if not cells:
            for j in range(k + 1, n):
                q, A[k][j] = ops.div(A[k][j], pivot)
                if q:
                    Qt[j] = ops.comb(ops.one, Qt[j], q, Qt[k])
            cells = [(k, j) for j in range(k + 1, n) if A[k][j]]
    return detP, detQ


def _sweep(ops, A, P, Qt):
    """Diagonalize the payload rows A in place, one pivot at a time; returns
    the payloads of the determinants of the steps on P and Q."""
    m, n = len(A), len(A[0])
    detP = detQ = ops.one
    for k in range(min(m, n)):
        cells = [(i, j) for i in range(k, m) for j in range(k, n) if A[i][j]]
        if not cells:
            break  # trailing block is zero; remaining diagonal entries stay 0
        detP, detQ = _pivot(ops, A, P, Qt, k, cells, detP, detQ)
    return detP, detQ


def _fix_divisibility_chain(ops, A, P, Qt):
    """Repair d_i | d_{i+1} in the diagonal payload rows A, in place (see
    the module docstring); returns the payloads of the determinants of the
    steps on P and Q. A pivot step at i leaves A diagonal."""
    detP = detQ = ops.one
    while True:
        changed = False
        for i in range(min(len(A), len(A[0])) - 1):
            while ops.div(A[i + 1][i + 1], A[i][i])[1]:  # div(b, 0) leaves b
                for R in (A, P):
                    R[i] = ops.comb(ops.one, R[i], ops.neg(ops.one), R[i + 1])
                cells = [(i, j) for j in (i, i + 1) if A[i][j]]  # d_i can be 0 over Z/n
                detP, detQ = _pivot(ops, A, P, Qt, i, cells, detP, detQ)
                changed = True
        if not changed:
            return detP, detQ


def _normalize_diagonal(ops, A, P):
    """Scale rows of the payload rows A and P so that each d_i is its
    canonical associate; returns the payload of the determinant of the
    scaling, the product of the u^-1."""
    scale = ops.one
    for i in range(min(len(A), len(A[0]))):
        u_inv = ops.normal(A[i][i])
        if u_inv != ops.one:
            A[i] = [ops.mul(u_inv, v) for v in A[i]]
            P[i] = [ops.mul(u_inv, v) for v in P[i]]
            scale = ops.mul(scale, u_inv)
    return scale


def diagonal_reduce(A: RingMatrix) -> ReductionCertificate:
    """Full Smith-style reduction with certificate, any m x n shape."""
    return _make_certificate(A.ring, *_reduce(A.ring, A.payload_lists()))


def _reduce(ring, A):
    """(P, D, Q, det P, det Q) as payload rows and payloads, from the payload
    rows A, which become D. A product reduces each component and zips the
    components' payloads back together."""
    if isinstance(ring, ProductRing):
        parts = [_reduce(f, [[v[i] for v in row] for row in A]) for i, f in enumerate(ring.factors)]
        P, D, Q, detP, detQ = zip(*parts)
        return *([list(zip(*rows)) for rows in zip(*mats)] for mats in (P, D, Q)), detP, detQ
    if not isinstance(ring, (IntegerRing, PrimeFieldPolynomialRing, ModularRing)):
        raise UnsupportedRing(f"diagonal reduction is not supported over {ring}")
    ops = ring.ops
    m, n = len(A), len(A[0])
    P = [[ops.one if i == j else ops.zero for j in range(m)] for i in range(m)]
    Qt = [[ops.one if i == j else ops.zero for j in range(n)] for i in range(n)]  # Q transposed
    detP, detQ = _sweep(ops, A, P, Qt)
    fixP, fixQ = _fix_divisibility_chain(ops, A, P, Qt)
    detP = ops.mul(ops.mul(detP, fixP), _normalize_diagonal(ops, A, P))
    return P, A, [list(c) for c in zip(*Qt)], detP, ops.mul(detQ, fixQ)


# ---------------------------------------------------------------------------
# independent verifier


def verify_reduction(A: RingMatrix, cert: ReductionCertificate) -> CheckReport:
    """Re-derive every certificate clause from scratch; lists all violations.

    P*A*Q is multiplied out on payloads and compared with D, and det Q is
    computed (matrices._det: peeled, then eliminated). det P comes from the
    identity det P * det A * det Q = det D when all of these hold: P*A*Q = D
    has passed, D is diagonal, A is square, and, on the ring or each product
    factor, the ring is a domain (Z or GF(p)[x]), det A is not 0 and det Q
    is a unit. Then recorded * det A * det Q = d_1 * ... * d_n holds only if
    the recorded value is det P, since det A * det Q cancels in a domain.
    In every other case, and wherever that test fails, det P is taken on
    P itself, so a tampered certificate names the same clauses as under a
    verifier that always takes det P on P."""
    failures = []
    ring = A.ring
    if (
        cert.P.ring != ring
        or cert.D.ring != ring
        or cert.Q.ring != ring
        or cert.P.rows != A.rows
        or cert.P.cols != A.rows
        or cert.Q.rows != A.cols
        or cert.Q.cols != A.cols
        or cert.D.rows != A.rows
        or cert.D.cols != A.cols
    ):
        return CheckReport.from_failures(["shapes consistent"])

    zero = ring.ops.zero
    P, D = cert.P.payload_lists(), cert.D.payload_lists()
    paq_ok = _matmul(ring, _matmul(ring, P, A.payload_lists()), cert.Q.payload_lists()) == D
    if not paq_ok:
        failures.append("PAQ=D")
    diag_ok = all(v == zero for i, row in enumerate(D) for j, v in enumerate(row) if i != j)

    detQ = _det(ring, cert.Q.payload_lists())
    if paq_ok and diag_ok and A.rows == A.cols and cert.detP_unit.ring == ring:
        detP = _det_from_identity(
            ring, P, A.payload_lists(), detQ, cert.detP_unit.payload, [D[i][i] for i in range(A.rows)]
        )
    else:
        detP = _det(ring, P)
    detP, detQ = RingElement(ring, detP), RingElement(ring, detQ)
    if not is_unit(detP):
        failures.append("det(P) unit")
    if not is_unit(detQ):
        failures.append("det(Q) unit")
    if detP != cert.detP_unit:
        failures.append("detP recorded")
    if detQ != cert.detQ_unit:
        failures.append("detQ recorded")

    if not diag_ok:
        failures.append("D diagonal")

    r = min(cert.D.rows, cert.D.cols)
    for i in range(r - 1):
        if exact_quotient(cert.D.entries[i + 1][i + 1], cert.D.entries[i][i]) is None:
            failures.append("divisibility chain")
            break

    for i in range(r):
        d = cert.D.entries[i][i]
        if canonical_associate(d)[1] != d:
            failures.append("canonical associates")
            break

    return CheckReport.from_failures(failures)


def _det_from_identity(ring, P, A, detQ, recorded, diagonal):
    """det P's payload, by the identity where verify_reduction's conditions
    hold and by _det on P elsewhere (payloads: `diagonal` holds the
    d_i). Products go componentwise."""
    if isinstance(ring, ProductRing):
        return tuple(
            _det_from_identity(
                f, *([[v[k] for v in row] for row in M] for M in (P, A)), detQ[k], recorded[k], [d[k] for d in diagonal]
            )
            for k, f in enumerate(ring.factors)
        )
    if isinstance(ring, (IntegerRing, PrimeFieldPolynomialRing)):
        ops = ring.ops
        detA = _det(ring, A)
        unit_q = not ops.div(ops.one, detQ)[1]
        if detA and unit_q and ops.mul(ops.mul(recorded, detA), detQ) == functools.reduce(ops.mul, diagonal, ops.one):
            return recorded
    return _det(ring, P)
