"""Dense matrices over a ring, with exact multiplication and determinants."""

from __future__ import annotations

from functools import partial
from math import gcd
from operator import mul

from .errors import DescriptorMismatch, PostconditionFailed, UnsupportedRing
from .rings import ModularRing, PayloadOps, ProductRing, Ring, RingElement
from .rings import PrimeFieldPolynomialRing, _kpack, _kslot, _kunpack

__all__ = ["RingMatrix"]


class RingMatrix:
    """An immutable m x n matrix of ring elements sharing one descriptor.

    Only rings with Bezout gcds carry matrices (Z, Z/n, GF(p)[x] and their
    products); the truncated series Zser<k> is refused with UnsupportedRing."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, entries):
        if ring.ops.bezout is None:
            raise UnsupportedRing(f"no matrix arithmetic over {ring}")
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrices must have at least one row and column")
        cols = len(rows[0])
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, RingElement) or (e.ring is not ring and e.ring != ring):
                    raise DescriptorMismatch("entry from a different ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *_):
        raise AttributeError("RingMatrix is immutable")

    @classmethod
    def from_payloads(cls, ring: Ring, payload_rows) -> "RingMatrix":
        """Build from raw payloads (ints for Z and Z/n, coefficient lists for
        polynomials, tuples for products)."""
        conv = []
        for row in payload_rows:
            out = []
            for v in row:
                if isinstance(v, RingElement):
                    out.append(v)
                elif isinstance(v, int):
                    out.append(ring.from_int(v))
                else:
                    out.append(ring.element(v))
            conv.append(out)
        return cls(ring, conv)

    @classmethod
    def wrap(cls, ring: Ring, payload_rows) -> "RingMatrix":
        """Build from canonical payloads of `ring` (as payload_lists gives
        them), without the per-entry checks of the constructor."""
        M = object.__new__(cls)
        entries = tuple(tuple(RingElement(ring, v) for v in row) for row in payload_rows)
        for name, value in (("ring", ring), ("rows", len(entries)), ("cols", len(entries[0])), ("entries", entries)):
            object.__setattr__(M, name, value)
        return M

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def to_lists(self):
        return [list(row) for row in self.entries]

    def payload_lists(self):
        """Fresh lists of the entries' payloads."""
        return [[e.payload for e in row] for row in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.ring != other.ring:
            raise DescriptorMismatch("matrix rings differ")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        return RingMatrix.wrap(self.ring, _matmul(self.ring, self.payload_lists(), other.payload_lists()))

    def det(self) -> RingElement:
        """Exact determinant in polynomial time, chosen by the ring.

        Products work componentwise. First the singleton lines are peeled
        (_peel): while some row or column has at most one nonzero entry, the
        determinant is 0 (no entry) or that entry, signed by its position,
        times its minor. Over Z/n the c x c core left is triangularised in
        Z/n by row steps of determinant 1 (_zn_det): O(c^3) products and
        O(c^2) xgcds of residues. Elsewhere it goes to fraction-free Gaussian
        elimination (Bareiss, Math. Comp. 22, 1968) through the ring's op
        table: O(c^3) operations, every entry a minor of the core, every
        division exact, the pivot the smallest nonzero entry of its column.

        Each row of a Bareiss step is one call of the table's row
        kernels (rings.PayloadOps comb and quo). Over GF(p)[x] the exact
        division by the previous pivot, a minor of growing degree, takes
        one Newton reciprocal of the reversed pivot for the whole row once
        the pivot has rings._NEWTON_CROSSOVER coefficients or more (von zur
        Gathen & Gerhard, Modern Computer Algebra, ch. 9), and then two
        Kronecker products an entry, one of them the check q*prev = x;
        shorter pivots use schoolbook long division.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return RingElement(self.ring, _det(self.ring, self.payload_lists()))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.element_str(e) for e in row) for row in self.entries
        )
        return f"<{self.ring} {self.rows}x{self.cols}: {body}>"


# ---------------------------------------------------------------------------
# kernels on payload rows: the op table, and the integer lift for the matrix
# product; products split into their components by indexing the payloads


def _matmul(ring: Ring, a, b):
    """Payload rows of the product of the payload rows a and b. Each entry
    is one dot product of ints, mapped back once: Z as it is, Z/n on its
    integer lift, GF(p)[x] by Kronecker packing (rings._kpack)."""
    if isinstance(ring, ProductRing):
        parts = [
            _matmul(f, *([[v[i] for v in row] for row in m] for m in (a, b))) for i, f in enumerate(ring.factors)
        ]
        return [list(zip(*rows)) for rows in zip(*parts)]
    cols = list(zip(*b))
    if isinstance(ring, PrimeFieldPolynomialRing):
        la = max(len(cs) for row in a for cs in row)
        lb = max(len(cs) for col in cols for cs in col)
        w = _kslot(ring.p, len(cols[0]) * min(la, lb))
        a = [[_kpack(cs, w) for cs in row] for row in a]
        cols = [[_kpack(cs, w) for cs in col] for col in cols]
        back = partial(_kunpack, w=w, p=ring.p)
    else:  # Z/n reduces each entry once: v -> v % n
        back = ring.n.__rmod__ if isinstance(ring, ModularRing) else int
    return [[back(sum(map(mul, row, col))) for col in cols] for row in a]


def _det(ring: Ring, rows):
    """The determinant's payload, from square payload rows: singleton lines
    are peeled first (_peel), and _zn_det (Z/n) or _bareiss takes the core."""
    if isinstance(ring, ProductRing):
        return tuple(_det(f, [[v[i] for v in row] for row in rows]) for i, f in enumerate(ring.factors))
    ops = ring.ops
    peeled = _peel(rows)
    if peeled is None:
        return ops.zero
    pairs, core_rows, core_cols, odd = peeled
    d = ops.one
    if core_rows:
        core = [[rows[i][j] for j in core_cols] for i in core_rows]
        d = _zn_det(core, ring.n) if isinstance(ring, ModularRing) else _bareiss(core, ops)
    for i, j in pairs:
        d = ops.mul(d, rows[i][j])
    return ops.neg(d) if odd else d


def _peel(a):
    """Expand the square payload rows `a` along its singleton lines, the
    singleton step of structured Gaussian elimination (LaMacchia & Odlyzko,
    CRYPTO 1990): while some live row or column has at most one nonzero
    entry, expand along it. An empty line makes the determinant 0: None.
    Otherwise (pairs, core rows, core columns, odd) with det a = (-1)^odd *
    prod(a[i][j] for i, j in pairs) * det(core): the position signs of the
    expansions multiply up to the parity of the permutation that sends each
    peeled row to its column and the core's rows to its columns in order."""
    n = len(a)
    in_row = [{j for j, v in enumerate(row) if v} for row in a]
    in_col = [set() for _ in range(n)]
    for i, js in enumerate(in_row):
        for j in js:
            in_col[j].add(i)
    todo = [(0, i) for i in range(n) if len(in_row[i]) < 2] + [(1, j) for j in range(n) if len(in_col[j]) < 2]
    match = [None] * n  # the column each row goes to
    pairs = []
    while todo:  # a line only loses entries, so a queued line stays a singleton
        side, k = todo.pop()
        line = (in_row, in_col)[side][k]
        if line is None:  # peeled already
            continue
        if not line:
            return None
        (other,) = line
        i, j = (k, other) if side == 0 else (other, k)
        match[i] = j
        pairs.append((i, j))
        for jj in in_row[i] - {j}:
            in_col[jj].discard(i)
            if len(in_col[jj]) < 2:
                todo.append((1, jj))
        for ii in in_col[j] - {i}:
            in_row[ii].discard(j)
            if len(in_row[ii]) < 2:
                todo.append((0, ii))
        in_row[i] = in_col[j] = None
    core_rows = [i for i in range(n) if in_row[i] is not None]
    core_cols = [j for j in range(n) if in_col[j] is not None]
    for i, j in zip(core_rows, core_cols):
        match[i] = j
    odd = False  # a cycle of even length is an odd permutation
    for start in range(n):
        length, k = 0, start
        while match[k] is not None:
            match[k], k = None, match[k]
            length += 1
        odd ^= length > 0 and length % 2 == 0
    return pairs, core_rows, core_cols, odd


def _zn_det(a, n):
    """det mod n of the square residue rows `a` (overwritten), as in Howell
    form (Storjohann & Mulders, ESA 1998): b = a[i][k] under a = a[k][k] goes
    by rows k, i -> x*row_k + y*row_i, (a/g)*row_i - (b/g)*row_k (det 1)."""
    d = 1
    for k, top in enumerate(a):
        for row in a[k + 1 :]:
            if row[k]:
                g = gcd(top[k], row[k])
                s, t = top[k] // g, row[k] // g
                x = pow(s, -1, t)  # the xgcd: x*s + y*t = 1, so x*a + y*b = g
                y = (1 - x * s) // t
                pairs = list(zip(top[k:], row[k:]))
                top[k:] = [(x * u + y * v) % n for u, v in pairs]
                row[k:] = [(s * v - t * u) % n for u, v in pairs]
        d = d * top[k] % n
        if not d:
            return 0
    return d


def _bareiss(a, ops: PayloadOps):
    """Determinant of the square payload matrix `a` (overwritten).

    After step k every entry of the trailing block is the (k+1) x (k+1)
    minor on the leading pivot rows and columns bordered by that entry, so
    the division by the previous pivot is exact; a remainder raises
    PostconditionFailed rather than yield a wrong determinant. Each row
    of a step is one call of the table's row kernels: comb forms
    pivot*row - f*pivot_row and quo divides it by the previous pivot."""
    n = len(a)
    negate = False
    prev = None  # the previous pivot; None stands for 1
    for k in range(n - 1):
        candidates = [i for i in range(k, n) if a[i][k]]
        if not candidates:
            return ops.zero
        best = min(candidates, key=lambda i: ops.size(a[i][k]))
        if best != k:
            a[k], a[best] = a[best], a[k]
            negate = not negate
        pivot = a[k][k]
        tail = a[k][k + 1 :]
        for i in range(k + 1, n):
            row = a[i]
            new = ops.comb(pivot, row[k + 1 :], row[k], tail)
            if prev is not None:
                new = ops.quo(new, prev)
                if new is None:
                    raise PostconditionFailed("Bareiss division left a remainder")
            row[k + 1 :] = new
        prev = pivot
    d = a[n - 1][n - 1]
    return ops.neg(d) if negate else d
