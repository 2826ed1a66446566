"""Constructive adequate and pi-adequate factorizations.

An element a is adequate to b when a = r*s with r coprime to b while every
non-invertible divisor of s shares a factor with b. Over a PID the split
falls out of repeated gcd extraction; over Z/n some power a^m splits through
a pair of idempotents; in the truncated series ring the integer split of the
constant term lifts coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotCoprime,
    PostconditionFailed,
    ScaleExceeded,
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
    _pdivmod,
    _pmonic,
    _pmul,
    _pxgcd,
    coprime_divisor,
    crt,
    divide_exact,
    factorize,
    gcd_bezout,
    is_unit,
    xgcd,
)

__all__ = [
    "AdequateSplit",
    "adequate_split",
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
    u_inv = ring.inverse(u)
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


_VERIFY_INT_BOUND = 10**6
_VERIFY_DEG_BOUND = 12
_VERIFY_MOD_BOUND = 10**4


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_irreducible_factors(cs, p):
    """Multiset of monic irreducible factors, by trial division with monic
    candidates of increasing degree. Fine at verifier scale (deg <= 12)."""
    out = []
    _, rem = _pmonic(cs, p)
    deg = 1
    while len(rem) - 1 >= 2 * deg:
        found = False
        for idx in range(p**deg):
            cand = []
            v = idx
            for _ in range(deg):
                cand.append(v % p)
                v //= p
            cand.append(1)
            cand = tuple(cand)
            q, r = _pdivmod(rem, cand, p)
            if not r:
                out.append(cand)
                rem = q
                found = True
                break
        if not found:
            deg += 1
    if len(rem) > 1:
        out.append(rem)
    return out


def verify_adequate(
    a: RingElement,
    b: RingElement,
    r: RingElement,
    s: RingElement,
    m: int = 1,
) -> CheckReport:
    """Check the three adequacy clauses for a^m = r*s against b, enumerating
    the non-unit divisors of s independently of any construction path."""
    ring = a.ring
    failures = []

    power = ring.one
    for _ in range(m):
        power = power * a
    if r * s != power:
        failures.append("a^m = r*s")

    if not is_unit(gcd_bezout(r, b).g):
        failures.append("gcd(r,b) unit")

    if isinstance(ring, IntegerRing):
        sv, bv = s.payload, b.payload
        if sv == 0:
            # only b = 0 meets every integer
            if bv != 0:
                failures.append("divisor condition")
        else:
            if abs(sv) > _VERIFY_INT_BOUND:
                raise ScaleExceeded(f"|s| exceeds {_VERIFY_INT_BOUND}")
            for dv in _int_divisors(sv):
                if dv != 1 and math.gcd(dv, bv) == 1:
                    failures.append("divisor condition")
                    break
    elif isinstance(ring, PrimeFieldPolynomialRing):
        p = ring.p
        if not s.payload:
            if b.payload:
                failures.append("divisor condition")
        else:
            if len(s.payload) - 1 > _VERIFY_DEG_BOUND:
                raise ScaleExceeded("deg s exceeds the verifier bound")
            irr = _poly_irreducible_factors(s.payload, p)
            # every non-unit divisor is a unit multiple of a sub-product, so
            # enumerate sub-products of the irreducible multiset
            seen = set()
            stack = [((), 0)]
            fail = False
            while stack and not fail:
                chosen, idx = stack.pop()
                if chosen and chosen not in seen:
                    seen.add(chosen)
                    prod = (1,)
                    for q in chosen:
                        prod = _pmul(prod, q, p)
                    gdd, _, _ = _pxgcd(prod, b.payload, p)
                    if len(gdd) <= 1:
                        fail = True
                for nxt in range(idx, len(irr)):
                    stack.append((tuple(sorted(chosen + (irr[nxt],))), nxt + 1))
            if fail:
                failures.append("divisor condition")
    elif isinstance(ring, ModularRing):
        n = ring.n
        if n > _VERIFY_MOD_BOUND:
            raise ScaleExceeded(f"modulus exceeds {_VERIFY_MOD_BOUND}")
        sv, bv = s.payload, b.payload
        gb = math.gcd(bv, n)
        for dv in range(n):
            gd = math.gcd(dv, n)
            if gd == 1:
                continue  # unit
            if sv % gd:
                continue  # dv does not divide s
            if math.gcd(gd, gb) == 1:
                failures.append("divisor condition")
                break
    else:
        raise UnsupportedRing(f"verify_adequate is not defined over {ring}")

    return CheckReport.from_failures(failures)
