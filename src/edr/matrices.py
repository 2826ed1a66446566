"""Dense matrices over a ring, with exact multiplication and determinants."""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple

from .errors import DescriptorMismatch
from .rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    Ring,
    RingElement,
    _padd,
    _pdivmod,
    _pmul,
    _pneg,
)

__all__ = ["RingMatrix"]


class RingMatrix:
    """An immutable m x n matrix of ring elements sharing one descriptor."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrices must have at least one row and column")
        cols = len(rows[0])
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for e in row:
                if not isinstance(e, RingElement) or e.ring != ring:
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
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        one, zero = ring.one, ring.zero
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries[i][j]

    def to_lists(self):
        return [list(row) for row in self.entries]

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
        zero = self.ring.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RingMatrix(self.ring, out)

    def det(self) -> RingElement:
        """Exact determinant in polynomial time, chosen by the ring.

        Products work componentwise. Over Z and GF(p)[x] it is fraction-free
        Gaussian elimination (Bareiss, Math. Comp. 22, 1968): O(n^3)
        operations, every entry it forms is a minor of the input, every
        division is exact, and the pivot is the smallest nonzero entry of
        its column. Over Z/n the same elimination runs on the integer lift
        and the result is reduced mod n, since the determinant commutes with
        Z -> Z/n. Rings with none of these (the truncated series Zser<k>)
        take Berkowitz's division-free algorithm (IPL 18, 1984), O(n^4) ring
        operations.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.ring, self.entries)

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.element_str(e) for e in row) for row in self.entries
        )
        return f"<{self.ring} {self.rows}x{self.cols}: {body}>"


# ---------------------------------------------------------------------------
# determinants


class _Arith(NamedTuple):
    """Payload arithmetic for Bareiss: `div` is only ever asked for exact
    quotients, `size` ranks pivot candidates, and zero payloads are falsy."""

    zero: object
    mul: Callable
    sub: Callable
    div: Callable
    neg: Callable
    size: Callable


_INT_ARITH = _Arith(0, operator.mul, operator.sub, operator.floordiv, operator.neg, abs)


def _poly_arith(p: int) -> _Arith:
    return _Arith(
        (),
        lambda a, b: _pmul(a, b, p),
        lambda a, b: _padd(a, _pneg(b, p), p),
        lambda a, b: _pdivmod(a, b, p)[0],
        lambda a: _pneg(a, p),
        len,
    )


def _det(ring: Ring, rows) -> RingElement:
    if isinstance(ring, ProductRing):
        return RingElement(
            ring,
            tuple(
                _det(factor, [[e.payload[idx] for e in row] for row in rows])
                for idx, factor in enumerate(ring.factors)
            ),
        )
    if isinstance(ring, (IntegerRing, ModularRing)):
        return ring.from_int(_bareiss([[e.payload for e in row] for row in rows], _INT_ARITH))
    if isinstance(ring, PrimeFieldPolynomialRing):
        return RingElement(ring, _bareiss([[e.payload for e in row] for row in rows], _poly_arith(ring.p)))
    return _berkowitz(ring, rows)


def _bareiss(a, ar: _Arith):
    """Determinant of the square payload matrix `a` (overwritten).

    After step k every entry of the trailing block is the (k+1) x (k+1)
    minor on the leading pivot rows and columns bordered by that entry, so
    the division by the previous pivot is exact."""
    n = len(a)
    negate = False
    prev = None  # the previous pivot; None stands for 1
    for k in range(n - 1):
        candidates = [i for i in range(k, n) if a[i][k]]
        if not candidates:
            return ar.zero
        best = min(candidates, key=lambda i: ar.size(a[i][k]))
        if best != k:
            a[k], a[best] = a[best], a[k]
            negate = not negate
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            if f:
                new = [ar.sub(ar.mul(pivot, row[j]), ar.mul(f, pivot_row[j])) for j in range(k + 1, n)]
            else:
                new = [ar.mul(pivot, row[j]) for j in range(k + 1, n)]
            if prev is not None:
                new = [ar.div(v, prev) for v in new]
            row[k + 1 :] = new
        prev = pivot
    d = a[n - 1][n - 1]
    return ar.neg(d) if negate else d


def _dot(xs, ys, zero):
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _berkowitz(ring: Ring, a) -> RingElement:
    """Division-free determinant over any commutative ring.

    `poly` holds the coefficients of det(x*I - A_r), leading first, for the
    leading r x r block A_r; each step multiplies it by the Toeplitz matrix
    with first column (1, -a_rr, -R*C, -R*A_r*C, ..., -R*A_r^(r-1)*C),
    R and C being the new row and column."""
    n = len(a)
    zero, one = ring.zero, ring.one
    poly = [one, -a[0][0]]
    for r in range(1, n):
        row = a[r][:r]
        col = [a[i][r] for i in range(r)]
        t = [one, -a[r][r]]
        for _ in range(r):
            t.append(-_dot(row, col, zero))
            col = [_dot(a[i][:r], col, zero) for i in range(r)]
        poly = [_dot(t[i::-1], poly, zero) for i in range(r + 2)]
    return poly[n] if n % 2 == 0 else -poly[n]
