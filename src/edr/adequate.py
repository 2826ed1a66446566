"""Constructive adequate and pi-adequate factorizations.

An element a is adequate to b when a = r*s with r coprime to b while every
non-invertible divisor of s shares a factor with b. Over a PID the split
falls out of repeated gcd extraction; over Z/n some power a^m splits through
a pair of idempotents; in the truncated series ring the integer split of the
constant term lifts coefficient by coefficient. verify_adequate re-checks a
split without any of these: its divisor clause is the one remainder test
s | b^k, written over the ring's op table.
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
    factorize,
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
    """Split a = r*s relative to b by extracting gcd(r, b) until coprime.

    Works over Z and GF(p)[x]; a must be nonzero. The loop terminates since
    each extraction strictly shrinks r; the iteration cap is defensive only.
    """
    ring = a.ring
    if not isinstance(ring, (IntegerRing, PrimeFieldPolynomialRing)):
        raise UnsupportedRing(f"adequate_split is not defined over {ring}")
    if a.is_zero():
        raise ZeroElement("cannot split zero")
    r, s = a, ring.one
    if isinstance(ring, IntegerRing):
        cap = abs(a.payload).bit_length() + 1
    else:
        cap = len(a.payload) + 1
    for _ in range(cap):
        bd = gcd_bezout(r, b)
        if is_unit(bd.g):
            return AdequateSplit(r, s, 1, bd)
        r = divide_exact(r, bd.g)
        s = s * bd.g
    raise PostconditionFailed("gcd extraction failed to terminate")


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


def pi_adequate_split_zn(a: RingElement, b: RingElement) -> AdequateSplit:
    """Split a^m over Z/n through idempotents, m = largest prime-power
    exponent of n (which makes a^m and b^m unit-regular componentwise).
    Finding m is the one step that factors n: a modulus whose factorization
    exceeds factorize's budget is refused with ScaleExceeded.

    With u, v units satisfying a^m*u*a^m = a^m and b^m*v*b^m = b^m, the
    idempotents e = a^m*u and f = b^m*v combine into e+f-ef and 1-f+ef whose
    product is e; the factor 1-f+ef is coprime to b and every non-unit
    divisor of (e+f-ef)*u^{-1} divides f up to units, hence meets b. Both
    conditions are re-verified exactly before returning.
    """
    ring = a.ring
    if not isinstance(ring, ModularRing):
        raise UnsupportedRing("pi_adequate_split_zn needs a Z/n ring")
    n = ring.n
    m = max(factorize(n).values())

    def regular_unit(x: int) -> int:
        # 1 on the prime powers that divide x, (x^m)^-1 on the rest
        free = coprime_divisor(n, x)
        return crt([1, pow(pow(x, m, free), -1, free)], [n // free, free])

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
    the constructions above (gcd extraction, idempotents), only the ring's
    op table and gcd_bezout.
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
