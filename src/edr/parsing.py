r"""Text grammar for ring descriptors and element literals.

Descriptors:  Z | Z/<n> | GF(<p>)[x] | Zser<k> | prod(<desc>,<desc>[,...])
              (Zser orders above 256, primes p >= psi_13 and prod nesting
              deeper than 32 are refused with ScaleExceeded)
Elements:     decimal integers; polynomials as [c0,c1,...]; truncated series
              as {z0;c1,c2,...} with rationals p/q; product tuples as
              (<el>,<el>,...).

Writers emit literals with no internal whitespace so they can live in
whitespace-separated matrix rows; the parser tolerates spaces around
punctuation for hand-written input. Errors carry the character offset.

Literals of Z, Z/n and GF(p)[x] are read by one compiled pattern each,
straight to their payloads; a literal the pattern rejects, and every
series or product literal, goes through the cursor parser, which raises
the ParseError with its position. The cursor skips the whitespace that
str.isspace names, which is the pattern's \s.
"""

from __future__ import annotations

import re
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
    _DECIMAL_CHUNK,
    _MR_BOUND,
    _PRODUCT_DEPTH_BOUND,
    _ptrim,
    int_from_decimal,
    is_prime,
)

__all__ = [
    "parse_ring",
    "ring_to_str",
    "parse_element",
    "parse_row",
    "element_to_str",
    "split_top_level",
]


_SIGNED = r"[+-]?[0-9]+"
_WS = re.compile(r"\s*")
_INTEGER = re.compile(r"\s*([+-]?)([0-9]*)")
# whole literals, with the whitespace the cursor skips around each token
_DECIMAL = re.compile(rf"\s*({_SIGNED})\s*")
_POLYNOMIAL = re.compile(rf"\s*\[\s*(?:{_SIGNED}\s*(?:,\s*{_SIGNED}\s*)*)?\]\s*")
_TOKEN = re.compile(_SIGNED)


class _Cursor:
    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

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
        m = _INTEGER.match(self.text, self.pos)
        sign, digits = m.groups()
        if not digits:
            raise ParseError("expected an integer", m.start(1))
        self.pos = m.end()
        value = int_from_decimal(digits)
        return -value if sign == "-" else value

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


def _payload_at(c: _Cursor, ring: Ring):
    c.skip_ws()
    if isinstance(ring, IntegerRing):
        return c.integer()
    if isinstance(ring, ModularRing):
        return c.integer() % ring.n
    if isinstance(ring, PrimeFieldPolynomialRing):
        c.expect("[")
        coeffs = []
        if not c.match("]"):
            coeffs.append(c.integer())
            while c.match(","):
                coeffs.append(c.integer())
            c.expect("]")
        return _ptrim(tuple(v % ring.p for v in coeffs))
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
        return ring.element(coeffs).payload
    if isinstance(ring, ProductRing):
        c.expect("(")
        comps = [_payload_at(c, ring.factors[0])]
        for f in ring.factors[1:]:
            c.expect(",")
            comps.append(_payload_at(c, f))
        c.expect(")")
        return tuple(comps)
    raise ParseError(f"no element grammar for {ring}", c.pos)


def _cursor_payload(ring: Ring, text):
    """The payload of the literal `text` by the cursor parser."""
    c = _Cursor(_text(text, "an element literal"))
    v = _payload_at(c, ring)
    c.done()
    return v


def _pattern_payload(ring: Ring, text):
    """The payload of the literal `text` by its ring kind's pattern, or None
    where there is no pattern or it does not match."""
    if not isinstance(text, str):
        return None
    if isinstance(ring, (IntegerRing, ModularRing)):
        m = _DECIMAL.fullmatch(text)
        if m is None:
            return None
        v = _signed(m[1])
        return v % ring.n if isinstance(ring, ModularRing) else v
    if isinstance(ring, PrimeFieldPolynomialRing) and _POLYNOMIAL.fullmatch(text):
        p = ring.p
        return _ptrim(tuple(_signed(c) % p for c in _TOKEN.findall(text)))
    return None


def _signed(token: str) -> int:
    """The int of a signed decimal token of any length."""
    v = int_from_decimal(token.lstrip("+-"))
    return -v if token[0] == "-" else v


def _payload(ring: Ring, text):
    v = _pattern_payload(ring, text)
    return _cursor_payload(ring, text) if v is None else v


def parse_element(ring: Ring, text: str) -> RingElement:
    return RingElement(ring, _payload(ring, text))


def parse_row(ring: Ring, literals) -> list:
    """The payloads of a row of element literals, as parse_element reads
    each. Over Z and Z/n a row of bare signed decimals, each short enough
    for int(), is matched and converted without a Python call per entry."""
    literals = list(literals)
    if isinstance(ring, (IntegerRing, ModularRing)) and _bare_decimals(literals):
        values = list(map(int, literals))
        return [v % ring.n for v in values] if isinstance(ring, ModularRing) else values
    return [_payload(ring, lit) for lit in literals]


def _bare_decimals(literals) -> bool:
    """Whether the literals are strings, each a signed decimal without
    whitespace of at most _DECIMAL_CHUNK characters."""
    return (set(map(type, literals)) == {str} and all(map(_TOKEN.fullmatch, literals))
            and max(map(len, literals)) <= _DECIMAL_CHUNK)


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
