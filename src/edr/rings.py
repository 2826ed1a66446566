"""Exact arithmetic over a small family of computable commutative rings.

Supported rings: the integers Z; residue rings Z/n; univariate polynomials
over a prime field GF(p)[x]; truncated series with integer constant term and
rational higher coefficients (Z + xQ[x], cut at x^k); and finite direct
products of the others, the series excepted. Every value is immutable and
every operation is a pure function, so elements and descriptors are safely
shareable.

A ring object doubles as the descriptor: two rings compare equal iff they
describe the same structure, and elements of distinct descriptors never mix.
All arithmetic is arbitrary precision (Python ints / fractions.Fraction);
nothing here rounds.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial

from .errors import (
    DescriptorMismatch,
    NotDivisible,
    PostconditionFailed,
    ScaleExceeded,
    UnsupportedRing,
)

__all__ = [
    "Ring",
    "IntegerRing",
    "ModularRing",
    "PrimeFieldPolynomialRing",
    "TruncatedSeriesRing",
    "ProductRing",
    "RingElement",
    "BezoutData",
    "PayloadOps",
    "is_unit",
    "unit_inverse",
    "gcd_bezout",
    "divide_exact",
    "exact_quotient",
    "jacobson_member",
    "canonical_associate",
    "bezout_combination",
    "ideal_combination",
    "xgcd",
    "is_prime",
    "factorize",
    "coprime_divisor",
    "crt",
    "int_to_decimal",
    "int_from_decimal",
]


# ---------------------------------------------------------------------------
# integer number theory helpers


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with x*a + y*b == g and g >= 0.

    xgcd(0, 0) == (0, 1, 0) so the cofactor identity x*1 + y*0 == 1 still
    holds in the degenerate case.
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# the first 13 primes: no composite below psi_13 ~ 3.317e24 passes them all
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 = 1287836182261 * 2575672364521, the least composite passing them all
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proved for n < _MR_BOUND (psi_13)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes below 1000, which factorize strips by trial division
_STRIP_PRIMES = tuple(
    p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1))
)
# Pollard-Brent squarings one factorize call may spend before it gives up
_RHO_BUDGET = 1 << 17
# squarings between two gcds of Brent's accumulated product
_RHO_BATCH = 128
# cofactors longer than this (after the strip) are refused unsplit: each
# squaring and each Miller-Rabin round grows with the square of the length
_RHO_MAX_BITS = 512


def factorize(n: int) -> dict[int, int]:
    """Prime factorization: trial division below 1000, then deterministic
    Pollard-Brent (R. P. Brent, BIT 20, 1980) on what remains.

    What the budget guarantees: the call ends after at most 2^17 rho
    squarings in all (plus at most 128 per replayed batch), on numbers of
    at most 512 bits once the small primes are stripped, and otherwise
    raises ScaleExceeded; it never hangs. A returned factorization is
    exact, each factor passing is_prime (proved below 3.3e24). Whether a
    given n fits the budget is not proved: rho needs about sqrt(p)
    squarings to split off a prime p, so factors below 2^24 or so are found
    and two primes of 2^40 each are not.

    No edr command calls it: the pi-split over Z/n takes its exponent from
    gcds. It stays only as a public utility, which the benchmark's tracer
    (perfbench/tracing.py) wraps by name.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _STRIP_PRIMES:
        if p * p > n:  # what is left is 1 or a prime
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n.bit_length() > _RHO_MAX_BITS:
        raise ScaleExceeded(f"a {n.bit_length()}-bit cofactor is beyond factorize's reach")
    budget = _RHO_BUDGET
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, budget = _rho_divisor(m, budget)
        pending += [d, m // d]
    return dict(sorted(out.items()))


def _rho_divisor(n: int, budget: int) -> tuple[int, int]:
    """A proper divisor of the odd composite n, and the budget left over.

    Brent's cycle search on y -> y^2 + c from y = 2, with c = 1, 2, ... until
    a run separates a factor; gcds are taken of batched products of |x - y|.
    Each doubling of the cycle length r is paid for in advance (2r squarings).
    """
    c = 0
    while True:
        c += 1
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r
            if budget < 0:
                raise ScaleExceeded(f"{n} resists rho within its budget")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_RHO_BATCH, r - k)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:  # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def coprime_divisor(n: int, a: int) -> int:
    """The largest divisor of n coprime to a (n >= 1), by gcds alone. g
    holds every prime of a still dividing n; squaring it before the next gcd
    doubles the exponent each division strips, so a prime of exponent k in
    n costs O(log k) gcds, not k. adequate.adequate_split runs this rule on
    Bezout gcds; math.gcd is several times cheaper per call."""
    g = math.gcd(n, a)
    while g != 1:
        n //= g
        g = math.gcd(n, g * g)
    return n


# decimal digits per str()/int() call, well under the interpreter's
# int <-> str conversion limit (4300 digits by default)
_DECIMAL_CHUNK = 4000


def int_to_decimal(v: int) -> str:
    """str(v) for integers of any length: halves split at a power of ten
    keep every str() call under the interpreter's digit limit."""
    if v < 0:
        return "-" + int_to_decimal(-v)
    if v.bit_length() <= 3 * _DECIMAL_CHUNK:  # < 10**3612
        return str(v)
    k = v.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(v, 10**k)
    return int_to_decimal(hi) + int_to_decimal(lo).zfill(k)


def int_from_decimal(digits: str) -> int:
    """int(digits) for a run of decimal digits of any length (no sign)."""
    if len(digits) <= _DECIMAL_CHUNK:
        return int(digits)
    k = len(digits) // 2
    return int_from_decimal(digits[:-k]) * 10**k + int_from_decimal(digits[-k:])


def crt(residues, moduli) -> int:
    """Solve x = r_i (mod m_i) for pairwise coprime moduli; result in [0, prod)."""
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        g, inv, _ = xgcd(m, mi)
        if g != 1:
            raise ValueError("crt moduli must be pairwise coprime")
        x = (x + (r - x) * inv % mi * m) % (m * mi)
        m *= mi
    return x


# ---------------------------------------------------------------------------
# payload arithmetic


# A ring's arithmetic on raw payloads, for loops that would otherwise wrap
# every intermediate value in a RingElement, and the ground RingElement's
# operators and the module functions below are written on. Every ring has one.
# Every result is canonical. In the base tables (Z, Z/n, GF(p)[x]) zero
# payloads are falsy; a product's or a series' zero is a tuple, so code
# that takes those compares with `zero`.
# `div(a, b)` is a division with remainder, (q, r) with a = q*b + r, r zero
# iff b divides a (and then q is exact_quotient's payload), and div(a, 0) =
# (0, a). Over Z, Z/n and GF(p)[x] also size(r) < size(b) for b != 0;
# `size` ranks pivot candidates: |a| over Z (the quotient is rounded, so
# |r| <= |b|/2), the number of coefficients over GF(p)[x], and gcd(a, n)
# over Z/n, 0 for a = 0 (r = a mod gcd(b, n), so gcd(r, n) <= r < gcd(b, n)).
# The series divides exactly or not at all: r is 0 or a itself, q = 0 then.
# `size` is None for products, which reduce componentwise and never pivot,
# and for the series, which carries no matrices.
# `bezout(a, b)` is the payloads (g, x, y, a1, b1) of gcd_bezout's
# BezoutData, None for the series, which has no Bezout gcds; `normal(a)` is
# the inverse of the unit canonical_associate splits off, so normal(a) * a
# is canonical. Matrix products bypass add and mul: they take whole dot
# products on the integer lift (matrices._matmul).
# The row kernels serve the row steps of the sweep and of Bareiss's
# elimination. `comb(a, xs, b, ys)`, one call per row, is the row
# [a*x - b*y for x, y in zip(xs, ys)]; over GF(p)[x] a and -b are packed
# once per call, in a Kronecker slot (below) sized for len(a) + len(b)
# products of coefficients, _kmuladd packs, combines and unpacks each entry
# with no call of its own, and a unit a skips the entries whose y is 0.
# `quo(xs, d)`, for d nonzero, is the list of exact quotients x/d as div
# gives them, or None if any entry leaves a remainder; Bareiss passes it a
# whole step's entries, and over GF(p)[x] a d of _NEWTON_CROSSOVER
# coefficients or more is inverted once per call. Both are None for the
# series, which has no matrices, and for products, which reduce and take
# determinants componentwise; quo is None over Z/n too (matrices._zn_det).
PayloadOps = namedtuple("PayloadOps", "zero one add sub mul neg size div bezout normal comb quo")


def _int_div(a, b):
    if not b:
        return 0, a
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):  # round to the nearest quotient
        return q + 1, r - b
    return q, r


def _int_bezout(a, b):
    g, x, y = xgcd(a, b)
    if not g:
        return 0, x, y, 1, 0
    return g, x, y, a // g, b // g


def _int_comb(a, xs, b, ys):
    if a == 1:  # the sweep's row steps; 1*x would copy a long x
        return [x - b * y for x, y in zip(xs, ys)]
    return [a * x - b * y for x, y in zip(xs, ys)]


def _row_quo(div, xs, d):
    """quo from a division with remainder: the quotients, or None if any
    remainder is nonzero."""
    qs = []
    for x in xs:
        q, r = div(x, d)
        if r:
            return None
        qs.append(q)
    return qs


_INT_OPS = PayloadOps(
    0, 1, operator.add, operator.sub, operator.mul, operator.neg, abs,
    _int_div, _int_bezout, lambda a: -1 if a < 0 else 1,
    _int_comb, partial(_row_quo, divmod),
)


def _zn_div(n, a, b):
    """(q, r) with r = a mod gcd(b, n) and q the smallest residue with
    b*q = a - r (mod n)."""
    g = math.gcd(b, n)
    r = a % g
    m = n // g
    if m == 1:
        return 0, r  # every residue works; 0 is the smallest
    return (a - r) // g * pow(b // g, -1, m) % m, r


def _zn_bezout(n, a, b):
    g0 = math.gcd(a, math.gcd(b, n))
    if g0 == n:  # both residues are zero
        return 0, 1, 0, 1, 0
    ap, bp = a // g0, b // g0
    np_ = n // g0
    # shift ap by s*np_ so that (ap, bp) is unimodular mod n: a prime of n
    # dividing ap but not np_ needs ap + s*np_ = 1, i.e. s = np_^-1; on the
    # other primes s = 0 keeps ap, which is then a unit or p misses bp
    free = coprime_divisor(n, np_)
    fix = free // coprime_divisor(free, ap)
    s = crt([pow(np_, -1, fix), 0], [fix, n // fix])
    a1 = (ap + s * np_) % n
    b1 = bp % n
    g1, u, v = xgcd(a1, b1)
    gg, w, _ = xgcd(g1, n)
    if gg != 1:
        raise PostconditionFailed("cofactor repair failed")
    return g0, w * u % n, w * v % n, a1, b1


def _zn_unit(n, a):
    """(u, g) with a = u*g (mod n), u a unit and g = gcd(a, n)."""
    if not a:
        return 1, 0
    g = math.gcd(a, n)
    # a/g is a unit mod n/g; the prime powers of n missing n/g take 1
    kept = n // coprime_divisor(n, n // g)
    return crt([a // g % kept, 1], [kept, n // kept]), g


def _ser_mul(k, a, b):
    out = [Fraction(0)] * k
    for i, ai in enumerate(a):
        if ai:
            for j in range(k - i):
                bj = b[j]
                if bj:
                    out[i + j] += Fraction(ai) * bj
    return (int(out[0]), *out[1:])


def _ser_div(k, zero, a, b):
    """(q, zero) with b*q = a when the series b divides a, else (zero, a)."""
    bv = next((i for i, c in enumerate(b) if c), None)
    if bv is None or any(a[i] for i in range(bv)):
        return zero, a  # b = 0, or its valuation exceeds the dividend's
    lead = Fraction(b[bv])
    q = [Fraction(a[bv]) / lead] + [Fraction(0)] * (k - 1)
    if q[0].denominator != 1:
        return zero, a  # the quotient's constant term is not an integer
    for i in range(1, k - bv):
        acc = Fraction(a[i + bv])
        for j in range(1, i + 1):
            acc -= Fraction(b[bv + j]) * q[i - j]
        q[i] = acc / lead
    # b*q = a by construction: the solve fixes each coefficient from b's valuation on
    return (int(q[0]), *q[1:]), zero


# ---------------------------------------------------------------------------
# polynomial payload helpers (little-endian int tuples over GF(p))


def _ptrim(cs):
    i = len(cs)
    while i and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def _padd(a, b, p):
    return _ptrim([(x + y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _psub(a, b, p):
    return _ptrim([(x - y) % p for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _pneg(a, p):
    return tuple([(-c) % p for c in a])


def _pmul(a, b, p):
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 1:  # zero or a constant, the sweep's commonest factors
        return tuple(a[0] * c % p for c in b) if a else ()
    w = _kslot(p, len(a))
    return _kmuladd(_kpack(a, w), (b,), 0, ((),), w, p)[0]


# Kronecker substitution: coefficients below 2^(8w) pack into the int
# sum(c_i * 2^(8*w*i)), so a product or a dot product of polynomials is one
# int multiply-and-add, exact while no coefficient of it reaches 2^(8w).
# Byte slots go through bytes, slots of 2, 4 or 8 bytes through struct
# (little-endian standard sizes, whatever the host's byte order), with one
# Struct per slot count, made on first use, so that no entry builds a
# format string; wider slots go through int.to_bytes.
_SLOT_STRUCTS = {w: cache(lambda n, f=f: struct.Struct(f"<{n}{f}")) for w, f in ((2, "H"), (4, "I"), (8, "Q"))}


def _kslot(p, terms):
    """Bytes per slot for sums of `terms` products of coefficients below p,
    and for p - 1 itself, so that the packed factors fit too."""
    w = (max(p - 1, terms * (p - 1) ** 2).bit_length() + 7) // 8
    return w if w > 8 else 1 << (w - 1).bit_length()


def _kpack(cs, w):
    """The coefficients cs, each below 2^(8w), as one int, w bytes a slot."""
    if w == 1:
        return int.from_bytes(bytes(cs), "little")
    if w in _SLOT_STRUCTS:
        return int.from_bytes(_SLOT_STRUCTS[w](len(cs)).pack(*cs), "little")
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in cs), "little")


def _kmuladd(pa, xs, pb, ys, w, p, low=False):
    """The row [pa*x + pb*y for x, y in zip(xs, ys)] of GF(p)[x] payloads, pa
    and pb packed in w-byte slots that hold every coefficient of the sums:
    the one unpack. Each entry is packed, combined and reduced mod p in the
    loop body with no call of its own, byte slots (and 2-byte ones below
    p = 128) by translate. pa == 1 is the unit: an entry whose y is 0 is x;
    pa None takes each x as packed (matrices._matmul); low wants only the
    len(x) low slots of an entry (_pquo), and wider slots drop the rest."""
    unit, packed, from_bytes = pa == 1, pa is None, int.from_bytes
    if w == 1:
        table = _byte_residues(p)
        return [x if unit and not y else tuple(
            (v := (x if packed else pa * from_bytes(x, "little")) + (pb * from_bytes(y, "little") if y else 0))
            .to_bytes((v.bit_length() + 7) // 8, "little").translate(table).rstrip(b"\0")) for x, y in zip(xs, ys)]
    structs, split, out = _SLOT_STRUCTS.get(w), w == 2 and p < 128, []
    if split:  # a slot lo + 256*hi is lo + (256*hi mod p) mod p, the sum below 256
        table, high = _byte_residues(p), _byte_residues(p, 8)
    for x, y in zip(xs, ys):
        if unit and not y:
            out.append(x)
            continue
        if structs:
            v = x if packed else pa * from_bytes(structs(len(x)).pack(*x), "little")
            v += pb * from_bytes(structs(len(y)).pack(*y), "little") if y else 0
        else:
            v = x if packed else pa * from_bytes(b"".join([c.to_bytes(w, "little") for c in x]), "little")
            v += pb * from_bytes(b"".join([c.to_bytes(w, "little") for c in y]), "little") if y else 0
        if low:  # the product mod z^len(x)
            v &= (1 << 8 * w * len(x)) - 1
        raw = v.to_bytes(-(-v.bit_length() // (8 * w)) * w, "little")
        if split:
            v = from_bytes(raw[::2].translate(table), "little") + from_bytes(raw[1::2].translate(high), "little")
            out.append(tuple(v.to_bytes(len(raw) // 2, "little").translate(table).rstrip(b"\0")))
            continue
        cs = [c % p for c in structs(len(raw) // w).unpack(raw)] if structs else [
            from_bytes(raw[i : i + w], "little") % p for i in range(0, len(raw), w)]
        cs = cs if any(cs) else ()  # the zeros off the diagonal of P*A*Q, at one scan
        while cs and not cs[-1]:
            cs.pop()
        out.append(tuple(cs))
    return out


@cache
def _byte_residues(p, shift=0):
    """The translation table byte -> (byte << shift) % p, for p below 256."""
    return bytes((i << shift) % p for i in range(256))


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    if len(b) == 1:  # a unit: no remainder
        return tuple(c * inv_lead % p for c in a), ()
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _ptrim(q), _ptrim(a)


# The shortest divisor that quo divides by a Newton reciprocal; shorter ones
# go through schoolbook long division. Measured on rows of 30 entries, each
# quotient as long as the divisor (as in Bareiss), on one x86-64 core under
# Python 3.11, the Newton column on the kernel _kmuladd; microseconds an
# entry, schoolbook / Newton, by the divisor's length m:
#   p            m = 3        m = 5        m = 6        m = 7
#   5            2.7 / 1.9    4.4 / 2.3    5.3 / 2.4    6.4 / 2.5
#   65537        3.3 / 4.4    5.7 / 5.8    7.1 / 6.3    8.9 / 6.8
#   2^61 - 1     7.9 / 7.4    12.5 / 11.7  16.6 / 13.3  19.2 / 15.3
# From m = 6 on Newton wins (GF(257)[x] too, 5.7 / 5.4), while at m = 5
# it still loses 6 % at p = 257 (4.7 / 5.0); its lead grows with m: at
# m = 64 it is 15x (p = 5) and 8x (p = 65537) faster.
_NEWTON_CROSSOVER = 6


def _pcomb(a, xs, b, ys, p):
    """The row [a*x - b*y for x, y in zip(xs, ys)] over GF(p): a and -b
    (as the residues p - c) are packed once, and _kmuladd packs, multiplies,
    adds and unpacks each entry with no call of its own. The slot holds the
    len(a) + len(b) products of coefficients below p that a coefficient of
    the row sums. For the unit a of the sweep's row steps an entry whose y
    is zero is x itself."""
    w = _kslot(p, len(a) + len(b))
    return _kmuladd(_kpack(a, w), xs, _kpack(_pneg(b, p), w), ys, w, p)


def _preciprocal(f, k, p):
    """g with f*g = 1 mod x^k, for f[0] != 0, by Newton's iteration
    g <- g*(2 - f*g), which doubles the precision at each step (von zur
    Gathen & Gerhard, Modern Computer Algebra, Algorithm 9.3)."""
    g = (pow(f[0], -1, p),)
    n = 1
    while n < k:
        n = min(2 * n, k)
        e = _psub(_pmul(f[:n], g, p)[:n], (1,), p)  # f*g - 1, zero below the old n
        g = _psub(g, _pmul(g, e, p)[:n], p)
    return g


def _pquo(xs, d, p):
    """The exact quotients of the row xs by d != 0 over GF(p), or None if
    any entry leaves a remainder.

    A short d goes through _pdivmod. A longer one is inverted once for all
    of xs: the quotient q of x by d, of k = len(x) - len(d) + 1 coefficients,
    reversed, is x's top k coefficients, reversed, times the reciprocal of
    the reversed d mod x^k (von zur Gathen & Gerhard, ch. 9). The remainder
    is zero iff q*d = x."""
    if len(d) < _NEWTON_CROSSOVER:
        return _row_quo(lambda x, d: _pdivmod(x, d, p), xs, d)
    m = len(d)
    longest = max((len(x) for x in xs), default=0) - m + 1  # quotient length
    w = _kslot(p, max(longest, m))
    # the low k slots of each product are the quotient, reversed
    tops, zeros = [x[m - 1 :][::-1] for x in xs], itertools.repeat(())
    rqs = _kmuladd(_kpack(_preciprocal(d[::-1], longest, p), w), tops, 0, zeros, w, p, low=True)
    qs = [(r + (0,) * len(t))[: len(t)][::-1] for t, r in zip(tops, rqs)]
    return qs if _kmuladd(_kpack(d, w), qs, 0, zeros, w, p) == list(xs) else None


def _pbezout(a, b, p):
    g, x, y = _pxgcd(a, b, p)
    if not g:
        return (), (1,), (), (1,), ()
    return g, x, y, _pdivmod(a, g, p)[0], _pdivmod(b, g, p)[0]


def _pmonic(a, p):
    """(unit, monic) with a == unit * monic; unit is a nonzero constant."""
    if not a:
        return (1,), ()
    lead = a[-1]
    if lead == 1:
        return (1,), a
    inv = pow(lead, -1, p)
    return (lead,), tuple(c * inv % p for c in a)


def _pxgcd(a, b, p):
    """Returns (g, x, y) with x*a + y*b == g, g monic (or zero)."""
    r0, r1 = a, b
    x0, x1 = (1,), ()
    y0, y1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        x0, x1 = x1, _psub(x0, _pmul(q, x1, p), p)
        y0, y1 = y1, _psub(y0, _pmul(q, y1, p), p)
    if r0:
        (u,), g = _pmonic(r0, p)
        if u != 1:
            inv = (pow(u, -1, p),)
            x0, y0 = _pmul(inv, x0, p), _pmul(inv, y0, p)
        return g, x0, y0
    return (), x0, y0


# ---------------------------------------------------------------------------
# elements


class RingElement:
    """An immutable value tagged by its ring descriptor.

    Payloads are canonical: residues reduced into [0, n); polynomials carry
    no trailing zero coefficients; truncated series store an int constant
    term followed by exact Fractions; product payloads are tuples of
    component payloads.
    """

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *_):
        raise AttributeError("RingElement is immutable")

    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DescriptorMismatch(
                    f"cannot mix elements of {self.ring} and {other.ring}"
                )
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.ops.add(self.payload, other.payload))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.ops.sub(self.payload, other.payload))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.ops.sub(other.payload, self.payload))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.ops.mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.ops.neg(self.payload))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.payload == other.payload
        )

    def __hash__(self):
        return hash((self.ring, self.payload))

    def is_zero(self) -> bool:
        return self.payload == self.ring.ops.zero

    def __repr__(self):
        return f"<{self.ring}: {self.ring.element_str(self)}>"


@dataclass(frozen=True)
class BezoutData:
    """Witness for a Hermite-style gcd: x*a + y*b = g, a = a1*g, b = b1*g,
    and the cofactors are unimodular: x*a1 + y*b1 = 1."""

    g: RingElement
    x: RingElement
    y: RingElement
    a1: RingElement
    b1: RingElement

    def holds_for(self, a: RingElement, b: RingElement) -> bool:
        one = a.ring.one
        return (
            self.x * a + self.y * b == self.g
            and self.a1 * self.g == a
            and self.b1 * self.g == b
            and self.x * self.a1 + self.y * self.b1 == one
        )


# ---------------------------------------------------------------------------
# ring descriptors


class Ring:
    """Common interface of the ring descriptors.

    `ops` is the ring's PayloadOps table, which every subclass provides.
    The element API is written once over that table: RingElement's
    operators, and the module functions below (unit_inverse, gcd_bezout,
    exact_quotient, divide_exact, canonical_associate). A table whose
    `bezout` is None (the truncated series) has no Bezout gcds, and
    RingMatrix and ProductRing refuse its ring."""

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    # --- construction -----------------------------------------------------

    def element(self, payload) -> RingElement:
        raise NotImplementedError

    def from_int(self, k: int) -> RingElement:
        """Canonical image of the integer k (k times the identity)."""
        raise NotImplementedError

    @cached_property
    def zero(self) -> RingElement:
        return self.from_int(0)

    @cached_property
    def one(self) -> RingElement:
        return self.from_int(1)

    # --- structure --------------------------------------------------------

    def jacobson_member(self, a: RingElement) -> bool:
        raise NotImplementedError

    def cardinality(self):
        """Number of elements, or None when infinite."""
        return None

    def iter_elements(self):
        raise UnsupportedRing(f"{self} is not enumerable")

    def element_str(self, a: RingElement) -> str:
        return self.payload_str(a.payload)

    def payload_str(self, v) -> str:
        """The literal of the payload v, as parsing reads it back."""
        raise NotImplementedError

    def __repr__(self):
        return str(self)


class IntegerRing(Ring):
    """The ring of rational integers."""

    ops = _INT_OPS

    def _key(self):
        return ("Z",)

    def __str__(self):
        return "Z"

    def element(self, payload):
        if not isinstance(payload, int) or isinstance(payload, bool):
            raise TypeError("integer payload expected")
        return RingElement(self, payload)

    def from_int(self, k):
        return RingElement(self, operator.index(k))  # a plain int, never a bool

    payload_str = staticmethod(int_to_decimal)

    def jacobson_member(self, a):
        return a.payload == 0


class ModularRing(Ring):
    """Residues modulo n (n >= 2). Canonical representatives live in [0, n).

    Z/n is a principal ideal ring; the gcd of (a, b) is canonically the
    residue of gcd(lift a, lift b, n), and the Bezout cofactors are repaired
    with multiples of n/g so that they stay unimodular. Every operation here
    needs gcds only, never the primes of n (Storjohann & Mulders, ESA 1998).
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise ValueError("modulus must be an integer >= 2")
        self.n = n

    def _key(self):
        return ("Zmod", self.n)

    def __str__(self):
        return "Z/" + int_to_decimal(self.n)

    def element(self, payload):
        if not isinstance(payload, int) or isinstance(payload, bool):
            raise TypeError("integer payload expected")
        return RingElement(self, payload % self.n)

    def from_int(self, k):
        return RingElement(self, k % self.n)

    @cached_property
    def ops(self):
        n = self.n
        return PayloadOps(
            0, 1, lambda a, b: (a + b) % n, lambda a, b: (a - b) % n, lambda a, b: a * b % n,
            lambda a: -a % n, lambda a: a and math.gcd(a, n), partial(_zn_div, n),
            partial(_zn_bezout, n), lambda a: pow(_zn_unit(n, a)[0], -1, n),
            lambda a, xs, b, ys: [(a * x - b * y) % n for x, y in zip(xs, ys)], None,
        )

    def jacobson_member(self, a):
        return coprime_divisor(self.n, a.payload) == 1  # every prime divides a

    def cardinality(self):
        return self.n

    def iter_elements(self):
        for v in range(self.n):
            yield RingElement(self, v)

    payload_str = staticmethod(int_to_decimal)


class PrimeFieldPolynomialRing(Ring):
    """Univariate polynomials over GF(p), p prime.

    Payload: little-endian tuple of coefficients in [0, p), no trailing
    zeros; the zero polynomial is the empty tuple.
    """

    def __init__(self, p: int):
        # checked first: is_prime is proved only below the bound, and it
        # takes seconds on a modulus of a few thousand digits
        if p >= _MR_BOUND:
            raise ScaleExceeded(f"GF(p)[x] needs p below psi_13 = {_MR_BOUND}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def _key(self):
        return ("GFpX", self.p)

    def __str__(self):
        return f"GF({self.p})[x]"

    def element(self, payload):
        cs = tuple(int(c) % self.p for c in payload)
        return RingElement(self, _ptrim(cs))

    def from_int(self, k):
        k %= self.p
        return RingElement(self, (k,) if k else ())

    @cached_property
    def ops(self):
        p = self.p
        return PayloadOps(
            (), (1,), lambda a, b: _padd(a, b, p), lambda a, b: _psub(a, b, p),
            lambda a, b: _pmul(a, b, p), lambda a: _pneg(a, p), len,
            lambda a, b: _pdivmod(a, b, p) if b else ((), a), lambda a, b: _pbezout(a, b, p),
            lambda a: (pow(a[-1], -1, p),) if a else (1,),
            lambda a, xs, b, ys: _pcomb(a, xs, b, ys, p), lambda xs, d: _pquo(xs, d, p),
        )

    def jacobson_member(self, a):
        return not a.payload

    @staticmethod
    def payload_str(v):
        return "[" + ",".join(map(str, v)) + "]"


class TruncatedSeriesRing(Ring):
    """Series z0 + c1*x + ... + c_{k-1}*x^{k-1} with z0 an integer and the
    higher coefficients exact rationals, multiplied modulo x^k.

    Supports arithmetic, exact division (so unit inversion) and radical
    membership only: its table has no Bezout gcds and no pivot size (the
    ring exists to host the coefficient recurrence splitting of series).
    """

    def __init__(self, order: int):
        if not isinstance(order, int) or order < 1:
            raise ValueError("truncation order must be >= 1")
        self.order = order

    def _key(self):
        return ("Zser", self.order)

    def __str__(self):
        return f"Zser{self.order}"

    def element(self, payload):
        cs = list(payload)
        if len(cs) > self.order:
            raise ValueError(f"at most {self.order} coefficients allowed")
        if any(isinstance(c, float) for c in cs):
            raise TypeError("coefficients must be exact (int or Fraction)")
        cs += [0] * (self.order - len(cs))
        z0 = cs[0]
        if isinstance(z0, Fraction):
            if z0.denominator != 1:
                raise ValueError("constant term must be an integer")
            z0 = int(z0)
        if not isinstance(z0, int):
            raise TypeError("constant term must be an integer")
        return RingElement(self, (z0, *(Fraction(c) for c in cs[1:])))

    def from_int(self, k):
        return RingElement(self, (operator.index(k), *(Fraction(0) for _ in range(self.order - 1))))

    @cached_property
    def ops(self):
        k = self.order
        zero, one, minus_one = (self.from_int(v).payload for v in (0, 1, -1))
        return PayloadOps(
            zero, one, lambda a, b: (a[0] + b[0], *(x + y for x, y in zip(a[1:], b[1:]))),
            lambda a, b: (a[0] - b[0], *(x - y for x, y in zip(a[1:], b[1:]))),
            partial(_ser_mul, k), lambda a: (-a[0], *(-c for c in a[1:])), None,
            partial(_ser_div, k, zero), None,
            lambda a: minus_one if next((c for c in a if c), 0) < 0 else one, None, None,
        )

    def jacobson_member(self, a):
        return a.payload[0] == 0

    @staticmethod
    def payload_str(v):
        z0, *cs = v  # int_to_decimal, unlike str(), has no digit limit
        coeffs = (int_to_decimal(c.numerator) + ("" if c.denominator == 1 else "/" + int_to_decimal(c.denominator))
                  for c in cs)
        return "{" + int_to_decimal(z0) + ";" + ",".join(coeffs) + "}"


# deepest prod(...) nesting accepted, prod(Z,Z) being depth 1: printing,
# comparing and parsing a descriptor, and each product payload, recurse once
# per level, so deeper nests would reach Python's recursion limit
_PRODUCT_DEPTH_BOUND = 32


class ProductRing(Ring):
    """A finite direct product of rings with Bezout gcds (Z, Z/n, GF(p)[x]
    and their products); a truncated series factor is refused with
    UnsupportedRing, and nesting deeper than _PRODUCT_DEPTH_BOUND with
    ScaleExceeded. A payload is the tuple of its component payloads, and
    the op table acts componentwise."""

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("a product ring needs at least two factors")
        if not all(isinstance(f, Ring) for f in factors):
            raise TypeError("factors must be ring descriptors")
        for f in factors:
            if f.ops.bezout is None:
                raise UnsupportedRing(f"no product with {f}: factors must be Z, Z/n, GF(p)[x] or products")
        self.depth = 1 + max((f.depth for f in factors if isinstance(f, ProductRing)), default=0)
        if self.depth > _PRODUCT_DEPTH_BOUND:
            raise ScaleExceeded(f"products nest deeper than {_PRODUCT_DEPTH_BOUND}")
        self.factors = factors

    def _key(self):
        return ("prod", tuple(f._key() for f in self.factors))

    def __str__(self):
        return "prod(" + ",".join(str(f) for f in self.factors) + ")"

    def element(self, payload):
        comps = tuple(payload)
        if len(comps) != len(self.factors):
            raise ValueError("component count mismatch")
        out = []
        for f, c in zip(self.factors, comps):
            if isinstance(c, RingElement):
                if c.ring != f:
                    raise DescriptorMismatch("component belongs to a different ring")
            else:
                c = f.element(c) if not isinstance(c, int) else f.from_int(c)
            out.append(c.payload)
        return RingElement(self, tuple(out))

    def from_int(self, k):
        return RingElement(self, tuple(f.from_int(k).payload for f in self.factors))

    @cached_property
    def ops(self):
        tables = [f.ops for f in self.factors]

        def each(name):  # the factors' entries `name`, one per component
            fns = [getattr(t, name) for t in tables]
            return lambda *args: tuple(fn(*xs) for fn, *xs in zip(fns, *args))

        def transposed(name):  # an entry returning a tuple, regrouped by field
            fn = each(name)
            return lambda *args: tuple(zip(*fn(*args)))

        return PayloadOps(
            tuple(t.zero for t in tables), tuple(t.one for t in tables), each("add"), each("sub"),
            each("mul"), each("neg"), None, transposed("div"), transposed("bezout"), each("normal"),
            None, None,
        )

    def jacobson_member(self, a):
        return all(f.jacobson_member(RingElement(f, c)) for f, c in zip(self.factors, a.payload))

    def cardinality(self):
        total = 1
        for f in self.factors:
            c = f.cardinality()
            if c is None:
                return None
            total *= c
        return total

    def iter_elements(self):
        for combo in itertools.product(*(f.iter_elements() for f in self.factors)):
            yield RingElement(self, tuple(e.payload for e in combo))

    def payload_str(self, v):
        return "(" + ",".join(f.payload_str(c) for f, c in zip(self.factors, v)) + ")"


# ---------------------------------------------------------------------------
# operation surface


def _same_ring(*els):
    ring = els[0].ring
    for e in els[1:]:
        if e.ring != ring:
            raise DescriptorMismatch(f"operands mix {ring} and {e.ring}")
    return ring


def unit_inverse(x: RingElement) -> RingElement | None:
    """The exact inverse of x when x is a unit, else None: x is a unit iff
    it divides one, and then the exact quotient is its inverse."""
    return exact_quotient(x.ring.one, x)


def is_unit(x: RingElement) -> bool:
    return unit_inverse(x) is not None


def gcd_bezout(a: RingElement, b: RingElement) -> BezoutData:
    """Canonical gcd with full Bezout witness data (see BezoutData)."""
    ring = _same_ring(a, b)
    if ring.ops.bezout is None:
        raise UnsupportedRing(f"{ring} does not support Bezout gcds")
    return BezoutData(*(RingElement(ring, v) for v in ring.ops.bezout(a.payload, b.payload)))


def divide_exact(a: RingElement, b: RingElement) -> RingElement:
    """The exact quotient q with b*q = a; raises NotDivisible otherwise.
    Over Z/n the smallest nonnegative solution is returned."""
    q = exact_quotient(a, b)
    if q is None:
        raise NotDivisible(f"inexact division in {a.ring}")
    return q


def exact_quotient(a: RingElement, b: RingElement) -> RingElement | None:
    """divide_exact's quotient, or None where it would raise NotDivisible."""
    ring = _same_ring(a, b)
    q, r = ring.ops.div(a.payload, b.payload)
    return None if r != ring.ops.zero else RingElement(ring, q)


def jacobson_member(a: RingElement) -> bool:
    """Whether a lies in the Jacobson radical (equivalently, 1 + a*t is a
    unit for every t)."""
    return a.ring.jacobson_member(a)


def canonical_associate(a: RingElement) -> tuple[RingElement, RingElement]:
    """(u, a_norm) with a = u * a_norm, u a unit and a_norm the canonical
    representative of the associate class; the table's normal(a) is u^-1."""
    ring = a.ring
    u_inv = ring.ops.normal(a.payload)
    return unit_inverse(RingElement(ring, u_inv)), RingElement(ring, ring.ops.mul(u_inv, a.payload))


def bezout_combination(elements) -> tuple[RingElement, list[RingElement]]:
    """Fold gcd_bezout over a nonempty list: returns (g, coeffs) with
    sum(coeffs[i] * elements[i]) == g and (g) the ideal the list generates.

    Step i folds elements[i] into the running gcd with g_i = x_i*g_{i-1} +
    y_i*elements[i], so coeffs[i] is y_i (1 for i = 0) times the x of every
    later step: one pass of suffix products, O(len) ring operations."""
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    g, steps = elements[0], []
    for e in elements[1:]:
        bd = gcd_bezout(g, e)
        steps.append(bd)
        g = bd.g
    if not steps:
        return g, [g.ring.one]
    coeffs, tail = [steps[-1].y], steps[-1].x
    for bd in reversed(steps[:-1]):
        coeffs.append(bd.y * tail)
        tail = bd.x * tail
    coeffs.append(tail)
    return g, coeffs[::-1]


def ideal_combination(elements, target: RingElement) -> list[RingElement] | None:
    """Coefficients c with sum(c[i] * elements[i]) == target when target lies
    in the ideal the elements generate, else None. They are
    bezout_combination's coefficients times the exact quotient target / g;
    with target = 1 that quotient is unit_inverse(g), so the coefficients
    witness that the elements are unimodular."""
    g, coeffs = bezout_combination(elements)
    w = exact_quotient(target, g)
    return None if w is None else [c * w for c in coeffs]
