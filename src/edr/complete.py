"""Stable-range lifts and determinant-prescribed completion of rows.

The ternary lift finds y with aR + (b + cy)R = R whenever (a, b, c) is
unimodular and a avoids the radical: split a = r*s against b (r coprime to
b, every prime of s divides b), then y = 0 mod r and y = 1 mod s does it.
The split is adequate.lifted_split's, which over Z/n splits gcd(a, n) on
Z; y is found there and reduced mod n. Each combination of 1 from given
elements, and each test that one exists, is rings.ideal_combination.

Both row completions have one builder, _rows_to, which runs Euclid on the
row's payloads with the sweep's division rule (reduce._pivot; Kannan &
Bachem, SIAM J. Comput. 8(4), 1979): swap the entry of least ops.size to
the front, divide every other entry by it with ops.div, and repeat until
the row is (d, 0, ..., 0). A matrix V, the identity at the start, keeps
row = (current row) * V: a swap swaps two rows of V and negates the sign
det V, and a[j] -= q*a[0] adds q*V[j] to V[0] (one ops.comb). Then
row = d*V[0], and V with the row in place of V[0] and V[1] scaled by
sign*w, where w = t / d for the target t, has determinant d*w = t; t
outside (d) is refused. Over Z, GF(p)[x] and Z/n (where size is
gcd(a, n)) every remainder is smaller than its divisor, so the loop ends.
A product completes factor by factor: its table has no size or comb.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotIdempotent,
    NotInIdeal,
    NotPrincipal,
    NotUnimodular,
    PostconditionFailed,
    PreconditionFailed,
    UnsupportedRing,
)
from .matrices import RingMatrix
from .report import CheckReport
from .rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    RingElement,
    gcd_bezout,
    ideal_combination,
    is_unit,
    jacobson_member,
    unit_inverse,
)
from .adequate import lifted_split

__all__ = [
    "CompletionCertificate",
    "sr1_quotient_lift",
    "sr2_reduce",
    "complete_row",
    "idempotent_complete",
    "verify_completion",
]

_LIFT_RINGS = (IntegerRing, ModularRing, PrimeFieldPolynomialRing)


@dataclass(frozen=True)
class CompletionCertificate:
    """Square matrix whose first row and exact determinant are prescribed.
    The first row is held as canonical payloads of A's ring, as A's rows are."""

    A: RingMatrix
    first_row: tuple
    det_target: RingElement
    det_value: RingElement


def _certify(ring, rows, first_row, target) -> CompletionCertificate:
    """Wrap the payload rows, without re-checking an entry, and check on
    payloads that the first row is `first_row`, then the determinant."""
    A = RingMatrix.wrap(ring, rows)
    first_row = tuple(e.payload for e in first_row)
    if A.payloads[0] != first_row:
        raise PostconditionFailed("first row was not preserved")
    det = A.det()
    if det != target:
        raise PostconditionFailed("determinant misses the target")
    return CompletionCertificate(A, first_row, target, det)


def verify_completion(cert: CompletionCertificate) -> CheckReport:
    """Independent re-check: first row entries and exact determinant. The
    first row matches when its payloads are those of A's first row."""
    failures = []
    if cert.A.rows != cert.A.cols or cert.A.rows != len(cert.first_row):
        return CheckReport.from_failures(["shapes consistent"])
    if tuple(cert.first_row) != cert.A.payloads[0]:
        failures.append("first row match")
    det = cert.A.det()
    if det != cert.det_target or det != cert.det_value:
        failures.append("det = target")
    return CheckReport.from_failures(failures)


# ---------------------------------------------------------------------------
# stable range lifts


def sr1_quotient_lift(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """y with aR + (b + c*y)R = R, given aR + bR + cR = R and a outside the
    radical. The result is re-verified by a gcd before returning."""
    ring = a.ring
    if not isinstance(ring, _LIFT_RINGS):
        raise UnsupportedRing(f"no lift construction over {ring}")
    if ideal_combination([a, b, c], ring.one) is None:
        raise PreconditionFailed("(a, b, c) is not unimodular")
    if jacobson_member(a):
        raise PreconditionFailed("a lies in the radical")

    # r and s are coprime (primes of s divide b, those of r do not), and y =
    # r*x with x*r + (.)*s = 1 vanishes mod r and is 1 mod s, so for any c
    # with (a, b, c) unimodular b + c*y dodges every prime of a: primes of r
    # miss b, primes of s miss c
    split = lifted_split(a, b)
    x, _ = ideal_combination([split.r, split.s], split.r.ring.one)
    y = ring.element((split.r * x).payload)
    if not is_unit(gcd_bezout(a, b + c * y).g):
        raise PostconditionFailed("lift postcondition failed")
    return y


def sr2_reduce(a1: RingElement, a2: RingElement, a3: RingElement):
    """(y1, y2) with (a1 + a3*y1)R + (a2 + a3*y2)R = R for any unimodular
    triple. When a1 sits in the radical, 1 - a1*x1 is a unit and the
    explicit correction a3*x3*(1 - a1*x1)^{-1} lands a1 next to the unit
    1 + a1; otherwise the ternary lift applies directly."""
    ring = a1.ring
    combo = ideal_combination([a1, a2, a3], ring.one)
    if combo is None:
        raise NotUnimodular("gcd(a1, a2, a3) is not a unit")
    x1, _, x3 = combo

    if jacobson_member(a1):
        w = unit_inverse(ring.one - a1 * x1)
        if w is None:  # radical membership makes 1 - a1*x1 a unit
            raise PostconditionFailed("1 - a1*x1 is not a unit")
        y1, y2 = x3 * w, ring.zero
    else:
        y1, y2 = ring.zero, sr1_quotient_lift(a1, a2, a3)

    if not is_unit(gcd_bezout(a1 + a3 * y1, a2 + a3 * y2).g):
        raise PostconditionFailed("sr2 postcondition failed")
    return y1, y2


# ---------------------------------------------------------------------------
# row completion


def complete_row(row, d: RingElement) -> CompletionCertificate:
    """Square matrix with the given first row and determinant exactly d;
    requires the row to generate the ideal (d) and length >= 2 (_rows_to)."""
    row, ring = _entries(row, d, _LIFT_RINGS, "completion", "target")
    ops = ring.ops
    for i, a in enumerate(row):
        if ops.div(a.payload, d.payload)[1]:
            raise NotPrincipal(f"d does not divide row entry {i}")
    rows = _rows_to(ring, [a.payload for a in row], d.payload)
    if rows is None:
        raise NotPrincipal("d is not an element combination of the row")
    return _certify(ring, rows, row, d)


def idempotent_complete(row, e: RingElement) -> CompletionCertificate:
    """Square matrix with the given first row and determinant the idempotent
    e, provided e lies in the ideal the row generates, over Z/n and over
    products (nested ones too); built as complete_row's matrix is."""
    row, ring = _entries(row, e, (ModularRing, ProductRing), "idempotent completion", "idempotent")
    if e * e != e:
        raise NotIdempotent("e*e != e")
    rows = _rows_to(ring, [a.payload for a in row], e.payload)
    if rows is None:
        raise NotInIdeal("e is not in the ideal generated by the row")
    return _certify(ring, rows, row, e)


def _entries(row, target, rings, job, name):
    """The row as a list and the target's ring, checked to be one of `rings`
    and to hold every entry of a row of two or more."""
    row = list(row)
    if len(row) < 2:
        raise PreconditionFailed("need at least two row entries")
    ring = target.ring
    if not isinstance(ring, rings):
        raise UnsupportedRing(f"{job} is not supported over {ring}")
    for a in row:
        if a.ring != ring:
            raise PreconditionFailed(f"row entries must share the {name}'s ring")
    return row, ring


def _rows_to(ring, row, t):
    """Payload rows completing the payload row `row` to the payload t, or
    None when t is not in the ideal the row generates (see the module
    docstring). A product completes each factor's component row and zips
    the components' rows back together."""
    n = len(row)
    if isinstance(ring, ProductRing):
        parts = [_rows_to(f, [a[k] for a in row], t[k]) for k, f in enumerate(ring.factors)]
        if None in parts:
            return None
        return [list(zip(*rows)) for rows in zip(*parts)]
    ops = ring.ops
    a = list(row)
    V = [[ops.one if i == j else ops.zero for j in range(n)] for i in range(n)]
    sign = ops.one
    cells = [j for j in range(n) if a[j]]
    while cells:
        j = min(cells, key=lambda j: ops.size(a[j]))
        if j:
            a[0], a[j] = a[j], a[0]
            V[0], V[j] = V[j], V[0]
            sign = ops.neg(sign)
        for j in range(1, n):
            q, a[j] = ops.div(a[j], a[0])
            if q:
                V[0] = ops.comb(ops.one, V[0], ops.neg(q), V[j])
        cells = [j for j in range(1, n) if a[j]]
    w, r = ops.div(t, a[0])
    if r:
        return None
    c = ops.mul(sign, w)
    V[1] = [ops.mul(c, x) for x in V[1]]
    return [list(row)] + V[1:]
