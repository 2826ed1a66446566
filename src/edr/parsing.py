"""Text grammar for ring descriptors and element literals.

Descriptors:  Z | Z/<n> | GF(<p>)[x] | Zser<k> | prod(<desc>,<desc>[,...])
              (Zser orders above 256, primes p >= psi_13 and prod nesting
              deeper than 32 are refused with ScaleExceeded)
Elements:     decimal integers; polynomials as [c0,c1,...]; truncated series
              as {z0;c1,c2,...} with rationals p/q; product tuples as
              (<el>,<el>,...).

Writers emit literals with no internal whitespace so they can live in
whitespace-separated matrix rows; the parser tolerates spaces around
punctuation for hand-written input. Errors carry the character offset.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, ScaleExceeded
from .rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    Ring,
    RingElement,
    TruncatedSeriesRing,
    _MR_BOUND,
    _PRODUCT_DEPTH_BOUND,
    int_from_decimal,
    is_prime,
)

__all__ = [
    "parse_ring",
    "ring_to_str",
    "parse_element",
    "element_to_str",
    "split_top_level",
]


class _Cursor:
    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def match(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        value = int_from_decimal(self.text[digits : self.pos])
        return -value if self.text[start] == "-" else value

    def rational(self) -> Fraction:
        num = self.integer()
        if self.match("/"):
            den_pos = self.pos
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", den_pos)
            return Fraction(num, den)
        return Fraction(num)

    def done(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected trailing input {self.text[self.pos:]!r}", self.pos)


# ---------------------------------------------------------------------------
# descriptors

# largest Zser order accepted: every literal is padded to k Fractions and a
# series split takes O(k^2) exact products (about half a second at 256)
_SERIES_ORDER_BOUND = 256


def _parse_ring_at(c: _Cursor, depth: int = 0) -> Ring:
    """`depth` counts the prod( levels around the cursor; one past the
    product bound is refused before the parser recurses into it."""
    c.skip_ws()
    if c.match("prod("):
        if depth >= _PRODUCT_DEPTH_BOUND:
            raise ScaleExceeded(f"products nest deeper than {_PRODUCT_DEPTH_BOUND}")
        factors = [_parse_ring_at(c, depth + 1)]
        while c.match(","):
            factors.append(_parse_ring_at(c, depth + 1))
        c.expect(")")
        if len(factors) < 2:
            raise ParseError("prod() needs at least two factors", c.pos)
        return ProductRing(factors)
    if c.match("GF("):
        ppos = c.pos
        p = c.integer()
        c.expect(")")
        c.expect("[x]")
        # from psi_13 up the constructor raises ScaleExceeded before any
        # primality test, which is unproved there and slow on long moduli
        if p < _MR_BOUND and not is_prime(p):
            raise ParseError("the characteristic is not prime", ppos)
        return PrimeFieldPolynomialRing(p)
    if c.match("Zser"):
        kpos = c.pos
        k = c.integer()
        if k < 1:
            raise ParseError("truncation order must be >= 1", kpos)
        if k > _SERIES_ORDER_BOUND:
            raise ScaleExceeded(f"truncation order exceeds {_SERIES_ORDER_BOUND}")
        return TruncatedSeriesRing(k)
    if c.match("Z/"):
        npos = c.pos
        n = c.integer()
        if n < 2:
            raise ParseError("modulus must be >= 2", npos)
        return ModularRing(n)
    if c.match("Z"):
        return IntegerRing()
    raise ParseError("expected a ring descriptor", c.pos)


def _text(text, what: str) -> str:
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a string, not {type(text).__name__}")
    return text


def parse_ring(text: str) -> Ring:
    c = _Cursor(_text(text, "a ring descriptor"))
    ring = _parse_ring_at(c)
    c.done()
    return ring


def ring_to_str(ring: Ring) -> str:
    return str(ring)


# ---------------------------------------------------------------------------
# elements


def _parse_element_at(c: _Cursor, ring: Ring) -> RingElement:
    c.skip_ws()
    if isinstance(ring, (IntegerRing, ModularRing)):
        return ring.from_int(c.integer())
    if isinstance(ring, PrimeFieldPolynomialRing):
        c.expect("[")
        coeffs = []
        if not c.match("]"):
            coeffs.append(c.integer())
            while c.match(","):
                coeffs.append(c.integer())
            c.expect("]")
        return ring.element(coeffs)
    if isinstance(ring, TruncatedSeriesRing):
        c.expect("{")
        z0 = c.integer()
        coeffs = [z0]
        if c.match(";"):
            c.skip_ws()
            if c.peek() != "}":
                coeffs.append(c.rational())
                while c.match(","):
                    coeffs.append(c.rational())
        start = c.pos
        c.expect("}")
        if len(coeffs) > ring.order:
            raise ParseError(
                f"series literal has {len(coeffs)} coefficients, order is {ring.order}", start
            )
        return ring.element(coeffs)
    if isinstance(ring, ProductRing):
        c.expect("(")
        comps = [_parse_element_at(c, ring.factors[0])]
        for f in ring.factors[1:]:
            c.expect(",")
            comps.append(_parse_element_at(c, f))
        c.expect(")")
        return ring.element(comps)
    raise ParseError(f"no element grammar for {ring}", c.pos)


def parse_element(ring: Ring, text: str) -> RingElement:
    c = _Cursor(_text(text, "an element literal"))
    el = _parse_element_at(c, ring)
    c.done()
    return el


def element_to_str(el: RingElement) -> str:
    return el.ring.element_str(el)


def split_top_level(text: str) -> list[str]:
    """Split on commas outside any (), [], {} nesting; used for --row lists."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", i)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced brackets", len(text))
    parts.append(text[start:])
    return parts
