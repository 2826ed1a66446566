"""Constructive adequate and pi-adequate factorizations.

An element a is adequate to b when a = r*s with r coprime to b while every
non-invertible divisor of s shares a factor with b. Over a PID the split
divides out squared gcds with b; over Z/n some power a^m splits through
a pair of idempotents, m the least power at which a and b vanish on the
prime powers of n that their primes divide, found by gcds and squarings, so
no Z/n split factors n; in the truncated series ring the integer split of
the constant term lifts coefficient by coefficient. verify_adequate
re-checks a split without any of these: its divisor clause is the one
remainder test s | b^k, written over the ring's op table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotCoprime,
    PostconditionFailed,
    PreconditionFailed,
    UnsupportedRing,
    ZeroConstantTerm,
    ZeroElement,
)
from .report import CheckReport
from .rings import (
    BezoutData,
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    RingElement,
    TruncatedSeriesRing,
    _same_ring,
    coprime_divisor,
    crt,
    divide_exact,
    gcd_bezout,
    is_unit,
    unit_inverse,
    xgcd,
)

__all__ = [
    "AdequateSplit",
    "adequate_split",
    "lifted_split",
    "pi_adequate_split_zn",
    "series_adequate_split",
    "verify_adequate",
]


@dataclass(frozen=True)
class AdequateSplit:
    """a^m = r * s with gcd(r, b) a unit; every non-unit divisor of s is
    non-coprime to b. `witness` certifies the coprimality of (r, b)."""

    r: RingElement
    s: RingElement
    m: int
    witness: BezoutData


def adequate_split(a: RingElement, b: RingElement) -> AdequateSplit:
    """Split a = r*s, r coprime to b and s holding every prime of a that
    divides b, over Z and GF(p)[x] (a nonzero). g = gcd(a, b); while g is
    not a unit, r is divided by g and g becomes gcd(r, g^2), which holds the
    primes of b still dividing r. Squaring doubles the multiplicity each
    division strips, so a prime of multiplicity k costs O(log k) gcds, not
    k. rings.coprime_divisor runs this rule on integers with math.gcd,
    cheaper per call; here a and b may be polynomials. The witness is
    gcd_bezout(r, b), the first gcd when nothing was stripped."""
    ring = a.ring
    if not isinstance(ring, (IntegerRing, PrimeFieldPolynomialRing)):
        raise UnsupportedRing(f"adequate_split is not defined over {ring}")
    if a.is_zero():
        raise ZeroElement("cannot split zero")
    bd = gcd_bezout(a, b)
    r, s, g = a, ring.one, bd.g
    while not is_unit(g):
        r, s = divide_exact(r, g), s * g
        g = gcd_bezout(r, g * g).g
    return AdequateSplit(r, s, 1, bd if s == ring.one else gcd_bezout(r, b))


def lifted_split(a: RingElement, b: RingElement) -> AdequateSplit:
    """adequate_split(a, b), except over Z/n: there the integer gcd(a, n),
    never 0, splits on Z against the lift of b, and r and s are integers.
    A prime of n divides a residue exactly when it divides the lift, so
    every prime of n dividing a divides r or s, none of r's divides b and
    all of s's do; n itself is never factored."""
    ring = a.ring
    if isinstance(ring, ModularRing):
        zz = IntegerRing()
        return adequate_split(zz.from_int(math.gcd(a.payload, ring.n)), zz.from_int(b.payload))
    return adequate_split(a, b)


def _nilpotency_index(x: int, n: int) -> int:
    """The least m >= 1 with x^m = 0 mod n, given that one exists (n >= 1):
    square x until it vanishes, then descend through the kept squares
    x^(2^j), taking each one that keeps the product nonzero. The products
    that stay nonzero are exactly x^t for t < m, so the descent builds the
    largest such t = m - 1 bit by bit, in O(log m) products mod n."""
    squares = [x % n]
    while squares[-1]:
        squares.append(squares[-1] * squares[-1] % n)
    acc, t = 1, 0  # acc = x^t mod n, never 0
    for j in range(len(squares) - 2, -1, -1):
        nxt = acc * squares[j] % n
        if nxt:
            acc, t = nxt, t + (1 << j)
    return t + 1


def pi_adequate_split_zn(a: RingElement, b: RingElement) -> AdequateSplit:
    """Split a^m over Z/n through idempotents, with m taken from gcds: n is
    never factored.

    For x in {a, b}, d_x = coprime_divisor(n, x) is the largest divisor of n
    prime to x, n_x = n / d_x carries the full prime powers of n whose primes
    divide x, and m_x is the least m >= 1 with x^m = 0 mod n_x (it exists:
    x^k = 0 mod n_x for k the largest prime exponent of n, which therefore
    bounds m_x). Take m = max(m_a, m_b). A prime of n that divides x then
    has its full power dividing x^m, and on every other prime x is a unit.
    So with u = 1 mod n_x and u = (x^m)^-1 mod d_x, a unit, x^m*u is 0 or 1
    on each prime power of n: an idempotent.

    The idempotents e = a^m*u and f = b^m*v combine into e+f-ef and 1-f+ef
    whose product is e; the factor 1-f+ef is coprime to b and every
    non-unit divisor of (e+f-ef)*u^{-1} divides f up to units, hence meets
    b. Both conditions are re-verified exactly before returning.
    """
    ring = a.ring
    if not isinstance(ring, ModularRing):
        raise UnsupportedRing("pi_adequate_split_zn needs a Z/n ring")
    n = ring.n
    free = {x: coprime_divisor(n, x) for x in (a.payload, b.payload)}
    m = max(_nilpotency_index(x, n // d) for x, d in free.items())

    def regular_unit(x: int) -> int:
        # 1 on the prime powers that divide x^m, (x^m)^-1 on the rest
        d = free[x]
        return crt([1, pow(pow(x, m, d), -1, d)], [n // d, d])

    am = pow(a.payload, m, n)
    bm = pow(b.payload, m, n)
    u = ring.from_int(regular_unit(a.payload))
    v = ring.from_int(regular_unit(b.payload))
    e = ring.from_int(am) * u
    f = ring.from_int(bm) * v
    if e * e != e or f * f != f:
        raise PostconditionFailed("a^m*u or b^m*v is not idempotent")

    coprime_part = ring.one - f + e * f
    u_inv = unit_inverse(u)
    divisor_part = (e + f - e * f) * u_inv
    if coprime_part * divisor_part != ring.from_int(am):
        raise PostconditionFailed("split identity failed")
    wit = gcd_bezout(coprime_part, b)
    if not is_unit(wit.g):
        raise PostconditionFailed("coprime factor shares a divisor with b")
    return AdequateSplit(coprime_part, divisor_part, m, wit)


def series_adequate_split(
    f: RingElement, g: RingElement
) -> tuple[RingElement, RingElement]:
    """Factor a truncated series f = s_el * t_el relative to g.

    The constant terms split over Z (s coprime to g's constant, t carrying
    the shared primes; the two parts are automatically coprime), then the
    higher coefficients solve the triangular system
        s*e_i + d_i*t = b_i - sum_{j<i} d_j*e_{i-j}
    exactly over Q. The particular solution is fixed by the Bezout identity
    s*sb + t*tb = 1: d_i = rhs*tb, e_i = rhs*sb.
    """
    ring = f.ring
    if not isinstance(ring, TruncatedSeriesRing):
        raise UnsupportedRing("series_adequate_split needs a truncated series ring")
    if g.ring != ring:
        raise UnsupportedRing("f and g must share one series ring")
    y = f.payload[0]
    if y == 0:
        raise ZeroConstantTerm("constant term of f is zero")
    z = g.payload[0]

    zz = IntegerRing()
    split = adequate_split(zz.from_int(y), zz.from_int(z))
    s_int, t_int = split.r.payload, split.s.payload
    gg, sb, tb = xgcd(s_int, t_int)
    if gg != 1:
        raise NotCoprime(f"integer split parts {s_int}, {t_int} share a factor")

    k = ring.order
    d = [Fraction(0)] * k  # coefficients riding on the coprime part
    e = [Fraction(0)] * k
    for i in range(1, k):
        rhs = Fraction(f.payload[i])
        for j in range(1, i):
            rhs -= d[j] * e[i - j]
        d[i] = rhs * tb
        e[i] = rhs * sb
    s_el = ring.element([s_int, *d[1:]])
    t_el = ring.element([t_int, *e[1:]])
    if s_el * t_el != f:
        raise PostconditionFailed("series split does not re-multiply")
    return s_el, t_el


# ---------------------------------------------------------------------------
# independent verifier


def _power(ops, x, k: int, mod):
    """x^k by square-and-multiply, each product replaced by its remainder
    ops.div(., mod)[1]; mod = zero reduces nothing, since div(a, 0) = (0, a).
    Remainders are congruent to what they replace modulo the ideal (mod), so
    the result is zero exactly when mod divides x^k (k >= 1)."""
    out = ops.one
    while k:
        if k & 1:
            out = ops.div(ops.mul(out, x), mod)[1]
        k >>= 1
        if k:
            x = ops.div(ops.mul(x, x), mod)[1]
    return out


def verify_adequate(
    a: RingElement,
    b: RingElement,
    r: RingElement,
    s: RingElement,
    m: int = 1,
) -> CheckReport:
    """Check the three adequacy clauses for a^m = r*s against b over Z, Z/n
    and GF(p)[x] (UnsupportedRing elsewhere, DescriptorMismatch when the four
    elements do not share one ring; m < 1 is PreconditionFailed).

    The divisor clause, every non-unit divisor of s meets b, holds exactly
    when every prime (irreducible) factor of s divides b: a non-unit divisor
    has a prime factor, and each prime factor is itself such a divisor. That
    holds exactly when s divides b^k for any k at least the largest
    multiplicity of a prime of s, so the clause is one remainder test. k is
    |s|.bit_length() over Z, deg s over GF(p)[x] and n.bit_length() over
    Z/n (where s | b^k means gcd(s, n) | b^k), and at least 1, so s = 0
    passes over Z and GF(p)[x] only with b = 0. The test costs O(log k)
    products, each reduced mod s, and a^m costs O(log m) products: nothing
    is factored, so s and n are not bounded. It shares no algorithm with
    the constructions above (squared-gcd stripping, idempotents), only the
    ring's op table and gcd_bezout.
    """
    ring = _same_ring(a, b, r, s)
    if isinstance(ring, IntegerRing):
        k = abs(s.payload).bit_length()
    elif isinstance(ring, ModularRing):
        k = ring.n.bit_length()
    elif isinstance(ring, PrimeFieldPolynomialRing):
        k = len(s.payload) - 1
    else:
        raise UnsupportedRing(f"verify_adequate is not defined over {ring}")
    if m < 1:
        raise PreconditionFailed("verify_adequate needs a power m >= 1")
    ops = ring.ops
    failures = []
    if ops.mul(r.payload, s.payload) != _power(ops, a.payload, m, ops.zero):
        failures.append("a^m = r*s")
    if not is_unit(gcd_bezout(r, b).g):
        failures.append("gcd(r,b) unit")
    if _power(ops, b.payload, max(k, 1), s.payload) != ops.zero:
        failures.append("divisor condition")
    return CheckReport.from_failures(failures)
