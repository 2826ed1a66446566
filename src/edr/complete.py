"""Stable-range lifts and determinant-prescribed completion of rows.

The ternary lift finds y with aR + (b + cy)R = R whenever (a, b, c) is
unimodular and a avoids the radical: split a = r*s against b (r coprime to
b, every prime of s divides b), then y = 0 mod r and y = 1 mod s does it.
The split is adequate.lifted_split's, which over Z/n splits gcd(a, n) on
Z; y is found there and reduced mod n. Each combination of 1 from given
elements, and each test that one exists, is rings.ideal_combination.

Both row completions have one builder, _rows_to: the row completes to its
gcd g and the second row is scaled by t / g for a target t in (g). The
completion to g runs the induction on the row length as one loop: each
pass folds the leading quotients into one generator, lifts the last-but-one
slot into a unimodular position and drops the last slot, recording the
column operations that undo its shifts; the 2x2 base then grows back, one
row and column per pass, and the recorded operations replay innermost first.
A pass costs O(k) ring operations, so the construction takes O(k^2) on a
row of k entries and dominates long rows: the certifying determinant
peels singleton lines and triangularises what is left (matrices._det). The
quotient/coefficient witnesses are carried from pass to pass algebraically;
recomputing them modulo n could displace them by annihilators of d and
derail the radical case analysis.
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
    bezout_combination,
    exact_quotient,
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
    """Square matrix whose first row and exact determinant are prescribed."""

    A: RingMatrix
    first_row: tuple[RingElement, ...]
    det_target: RingElement
    det_value: RingElement


def _certify(ring, rows, first_row, target) -> CompletionCertificate:
    A = RingMatrix(ring, rows)
    if tuple(A.entries[0]) != tuple(first_row):
        raise PostconditionFailed("first row was not preserved")
    det = A.det()
    if det != target:
        raise PostconditionFailed("determinant misses the target")
    return CompletionCertificate(A, tuple(first_row), target, det)


def verify_completion(cert: CompletionCertificate) -> CheckReport:
    """Independent re-check: first row entries and exact determinant."""
    failures = []
    if cert.A.rows != cert.A.cols or cert.A.rows != len(cert.first_row):
        return CheckReport.from_failures(["shapes consistent"])
    if tuple(cert.A.entries[0]) != tuple(cert.first_row):
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

    y = _lift(a, b)
    if not is_unit(gcd_bezout(a, b + c * y).g):
        raise PostconditionFailed("lift postcondition failed")
    return y


def _lift(a, b):
    """sr1_quotient_lift's y, unchecked: it depends on a and b alone."""
    # r and s are coprime (primes of s divide b, those of r do not), and y =
    # r*x with x*r + (.)*s = 1 vanishes mod r and is 1 mod s, so for any c
    # with (a, b, c) unimodular b + c*y dodges every prime of a: primes of r
    # miss b, primes of s miss c
    split = lifted_split(a, b)
    x, _ = ideal_combination([split.r, split.s], split.r.ring.one)
    return a.ring.element((split.r * x).payload)


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
    requires the row to generate the ideal (d) and length >= 2. The row
    completes to its gcd g, the second row scaled by d / g (_rows_to)."""
    row, ring = _entries(row, d, _LIFT_RINGS, "completion", "target")
    for i, a in enumerate(row):
        if exact_quotient(a, d) is None:
            raise NotPrincipal(f"d does not divide row entry {i}")
    rows = _rows_to(ring, row, d)
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
    rows = _rows_to(ring, row, e)
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
    """Entry rows completing `row` to determinant t, or None when t is not
    in the row's ideal (g): the completion to g, its second row scaled by
    t / g, or zero rows under the row when t = 0. A product completes factor
    by factor: the lift behind the completion exists over its factors."""
    n = len(row)
    if isinstance(ring, ProductRing):
        parts = [_rows_to(f, [RingElement(f, a.payload[k]) for a in row], RingElement(f, t.payload[k]))
                 for k, f in enumerate(ring.factors)]
        if None in parts:
            return None
        return [[RingElement(ring, tuple(p[i][j].payload for p in parts)) for j in range(n)] for i in range(n)]
    if t.is_zero():
        return [list(row)] + [[ring.zero] * n for _ in range(n - 1)]
    g, coeffs = bezout_combination(row)
    w = exact_quotient(t, g)
    if w is None:
        return None
    rows = _complete(ring, list(row), [exact_quotient(a, g) for a in row], coeffs)
    rows[1] = [a * w for a in rows[1]]
    return rows


def _complete(ring, row, q, x):
    """Entry rows completing `row` (the list is consumed) to determinant d,
    where d*q[i] == row[i] and sum(x[i]*row[i]) == d at the top of every
    pass; _rows_to calls it with d the row's gcd."""
    zero, one = ring.zero, ring.one
    steps = []
    while len(row) > 2:
        k = len(row)
        c = -one
        for xi, qi in zip(x, q):
            c = c + xi * qi  # d*c == 0
        t = q[-1] * x[-1] - c

        undo = None
        if all(jacobson_member(qi) for qi in q[: k - 2]):
            if not jacobson_member(q[k - 2]):
                # shift the next-to-last slot onto the first; x needs no
                # update, the lift below reads only x[k-1] and rebuilds x
                undo = (k - 2, one)
                row[0] = row[0] + row[k - 2]
                q[0] = q[0] + q[k - 2]
            else:
                # last resort: q[-1]*x[-1] - c escapes the radical (the three
                # classes cannot all sit inside it, their witness combination
                # sums to 1)
                undo = (k - 1, x[k - 1])
                row[0] = row[0] + row[k - 1] * x[k - 1]
                q[0] = q[0] + t
                x[k - 1] = x[k - 1] * (one - x[0])

        # now a leading quotient escapes the radical: lift the last-but-one
        # slot into a unimodular position against their gcd
        g, s_coeffs = bezout_combination(q[: k - 2])
        z = _lift(g, q[k - 2])
        target = q[k - 2] + t * z
        combo = ideal_combination([g, target], one)  # checks the lift too
        if combo is None:
            raise PostconditionFailed("lift postcondition failed")
        alpha, beta = combo

        shift = x[k - 1] * z
        last = row.pop()
        steps.append((last, shift, undo))
        row[k - 2] = row[k - 2] + last * shift
        q[k - 2 :] = [target]
        x = [alpha * sc for sc in s_coeffs] + [beta]

    rows = [[row[0], row[1]], [-x[1], x[0]]]
    for last, shift, undo in reversed(steps):
        k = len(rows) + 1
        for i, r in enumerate(rows):
            r.append(last if i == 0 else zero)
        rows.append([zero] * (k - 1) + [one])
        # undo the lift's shift: col[k-2] -= x[k-1]*z * col[k-1]
        for r in rows:
            r[k - 2] = r[k - 2] - shift * r[k - 1]
        if undo is not None:
            # and the leading one: col[0] -= coef * col[j]
            j, coef = undo
            for r in rows:
                r[0] = r[0] - coef * r[j]
    return rows
