"""Brute-force oracles, independent of every library code path they check."""

import argparse
import itertools
import math
from fractions import Fraction

from edr import checkers
from edr.cli import _UsageError
from edr.errors import ScaleExceeded, UnsupportedRing
from edr.matrices import RingMatrix, _bareiss
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    RingElement,
    divide_exact,
    gcd_bezout,
    is_unit,
)


def int_divisors(n):
    """Positive divisors of |n| in increasing order."""
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


def divisors_meet_z(s, b):
    """Every non-unit divisor of s shares a factor with b, over Z, by plain
    divisor enumeration."""
    if s == 0:
        return b == 0  # only b = 0 meets every integer
    return all(math.gcd(d, b) != 1 for d in int_divisors(s) if d > 1)


def split_one_gcd_per_pass(a, b):
    """(r, s, witness) of the adequate split of a against b over Z or
    GF(p)[x] by the plain loop: strip g = gcd(r, b) from r, one gcd per
    pass, until g is a unit; that last gcd's Bezout data is the witness. A
    prime of multiplicity k in a costs k passes; the reference for
    adequate_split."""
    r, s = a, a.ring.one
    while True:
        bd = gcd_bezout(r, b)
        if is_unit(bd.g):
            return r, s, bd
        r = divide_exact(r, bd.g)
        s = s * bd.g


def valid_adequate_split_z(a, b, r, s, m=1):
    """The three adequacy clauses over Z, by plain divisor enumeration."""
    if r * s != a**m:
        return False
    if math.gcd(r, b) != 1:
        return False
    return divisors_meet_z(s, b)


def divisors_meet_zn(n, s, b):
    """The divisor clause in Z/n; divisors of s are scanned ring-wide."""
    gb = math.gcd(b, n)
    for d in range(n):
        gd = math.gcd(d, n)
        if gd == 1:
            continue  # unit
        if s % gd:
            continue  # d does not divide s in Z/n
        if math.gcd(gd, gb) == 1:
            return False
    return True


def valid_split_zn(n, a, b, r, s, m=1):
    """The adequacy clauses in Z/n; divisors of s are scanned ring-wide."""
    if (r * s - pow(a, m, n)) % n:
        return False
    if math.gcd(r, math.gcd(b, n)) != 1:
        return False
    return divisors_meet_zn(n, s, b)


def poly_trim(cs):
    """The coefficient tuple cs without trailing zeros."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_divmod(a, b, p):
    """(q, r) with a = q*b + r and deg r < deg b over GF(p), by schoolbook
    long division; b is nonzero."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        q[i] = a[i + len(b) - 1] * inv % p
        for j, bj in enumerate(b):
            a[i + j] = (a[i + j] - q[i] * bj) % p
    return poly_trim(q), poly_trim(a)


def poly_gcd(a, b, p):
    """A gcd of a and b over GF(p) (a unit multiple of the monic one), by
    Euclid's remainder sequence."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return a


def poly_irreducible_factors(cs, p):
    """Multiset of monic irreducible factors of a nonzero polynomial, by
    trial division with monic candidates of increasing degree: the p^d
    candidates of degree d are tried until the cofactor has no factor of
    degree up to half its own, so it is irreducible (or constant)."""
    inv = pow(cs[-1], -1, p)
    rem = tuple(c * inv % p for c in cs)
    out = []
    deg = 1
    while len(rem) - 1 >= 2 * deg:
        for idx in range(p**deg):
            cand = tuple(idx // p**i % p for i in range(deg)) + (1,)
            q, r = poly_divmod(rem, cand, p)
            if not r:
                out.append(cand)
                rem = q
                break
        else:
            deg += 1
    if len(rem) > 1:
        out.append(rem)
    return out


def divisors_meet_gfpx(p, s, b):
    """The divisor clause over GF(p)[x]: every non-unit divisor of s is a unit
    multiple of a product of a non-empty sub-multiset of s's irreducible
    factors, so each such sub-product must have a non-constant gcd with b."""
    if not s:
        return not b  # only b = 0 meets every polynomial
    irr = poly_irreducible_factors(s, p)
    for size in range(1, len(irr) + 1):
        for chosen in itertools.combinations(irr, size):
            prod = (1,)
            for q in chosen:
                prod = poly_mul(prod, q, p)
            if len(poly_gcd(prod, b, p)) <= 1:
                return False
    return True


def valid_adequate_split_gfpx(p, a, b, r, s, m=1):
    """The three adequacy clauses over GF(p)[x] for coefficient tuples
    (little-endian, no trailing zeros)."""
    power = (1,)
    for _ in range(m):
        power = poly_mul(power, a, p)
    if poly_mul(r, s, p) != power:
        return False
    if len(poly_gcd(r, b, p)) != 1:
        return False  # gcd(r, b) is zero or not constant
    return divisors_meet_gfpx(p, s, b)


def exists_split_zn(n, a, b, m=1):
    """Scan every factorization of a^m in Z/n for a valid split."""
    target = pow(a, m, n)
    for r in range(n):
        for s in range(n):
            if r * s % n == target and valid_split_zn(n, a, b, r, s, m):
                return True
    return False


def perm_det(rows):
    """Leibniz determinant over plain integers."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += -prod if inversions % 2 else prod
    return total


def lifted_bareiss_det(ring, rows):
    """The determinant's payload from square payload rows by Bareiss on the
    whole matrix, no peeling. Over Z/n it runs on the integer lift and
    reduces the result mod n, since the determinant commutes with Z -> Z/n:
    the reference for the Z/n elimination, which never leaves Z/n. Products
    split componentwise."""
    if isinstance(ring, ProductRing):
        return tuple(lifted_bareiss_det(f, [[v[i] for v in row] for row in rows]) for i, f in enumerate(ring.factors))
    if isinstance(ring, ModularRing):
        return _bareiss([row[:] for row in rows], IntegerRing().ops) % ring.n
    return _bareiss([row[:] for row in rows], ring.ops)


def sr1_solution_exists_z(a, b, c, bound):
    """Scan y in [0, bound) for gcd(a, b + c*y) = 1."""
    return any(math.gcd(a, b + c * y) == 1 for y in range(bound))


def jacobson_brute_zn(n, a):
    """a is radical in Z/n iff 1 + a*t is a unit for every t."""
    return all(math.gcd((1 + a * t) % n, n) == 1 for t in range(n))


def trial_factorize(n):
    """Prime factorization {p: e} of n >= 1 by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def canonical_associate_zn(n, a):
    """(u, g) for a in Z/n by the per-prime-power rule: g = gcd(a, n), and u
    is a/g modulo p^e where p divides n/g, 1 modulo the other p^e."""
    if a % n == 0:
        return 1, 0
    g = math.gcd(a, n)
    u, m = 0, 1
    for p, e in trial_factorize(n).items():
        pe = p**e
        r = (a // g) % pe if (n // g) % p == 0 else 1
        while u % pe != r:  # plain CRT: step through the residues mod m
            u += m
        m *= pe
    return u, g


def sieve_factorizations(limit):
    """{p: e} of every 1 <= n < limit, from a smallest-prime-factor sieve."""
    spf = list(range(limit))
    for p in range(2, math.isqrt(limit - 1) + 1):
        if spf[p] == p:
            for k in range(p * p, limit, p):
                if spf[k] == k:
                    spf[k] = p
    out = [None, {}]
    for n in range(2, limit):
        f = dict(out[n // spf[n]])
        f[spf[n]] = f.get(spf[n], 0) + 1
        out.append(f)
    return out


def brute_predicate_scan(ring, predicate):
    """(holds, elements_scanned) of one finite-ring predicate by the plain
    nested loops of its clause, over Cayley tables built with RingElement
    arithmetic: a unit is an element with a multiple equal to one, aR + bR = R
    iff some a*x + b*y is one, and a lies in J iff 1 - a*x is a unit for
    every x. Counts as the checker does: Clean and PmRing every a,
    StableRange1 the comaximal pairs (a, b), JStableCondition the triples
    with a outside J and (b, c) comaximal."""
    elements = list(ring.iter_elements())
    index = {e: i for i, e in enumerate(elements)}
    size = len(elements)
    add = [[index[x + y] for y in elements] for x in elements]
    mul = [[index[x * y] for y in elements] for x in elements]
    zero, one = index[ring.zero], index[ring.one]
    sub = [[row.index(x) for row in add] for x in range(size)]  # sub[x][y] = x - y
    units = {x for x in range(size) if one in mul[x]}
    ideal = [frozenset(row) for row in mul]
    comaximal = [
        [any(sub[one][u] in ideal[a] for u in ideal[b]) for b in range(size)]
        for a in range(size)
    ]
    elems = range(size)

    if predicate == "Clean":
        idempotents = [e for e in elems if mul[e][e] == e]
        holds = all(any(sub[a][e] in units for e in idempotents) for a in elems)
        return holds, size
    if predicate == "PmRing":
        holds = all(
            any(
                mul[sub[one][mul[a][x]]][sub[one][mul[sub[one][a]][y]]] == zero
                for x in elems
                for y in elems
            )
            for a in elems
        )
        return holds, size
    scanned = 0
    if predicate == "StableRange1":
        for a in elems:
            for b in elems:
                if comaximal[a][b]:
                    scanned += 1
                    if not any(add[a][mul[b][y]] in units for y in elems):
                        return False, scanned
        return True, scanned
    if predicate == "JStableCondition":
        for a in elems:
            if all(sub[one][mul[a][x]] in units for x in elems):
                continue  # a lies in J
            for b in elems:
                for c in elems:
                    if comaximal[b][c]:
                        scanned += 1
                        if not any(comaximal[a][add[b][mul[c][y]]] for y in elems):
                            return False, scanned
        return True, scanned
    raise ValueError(f"unknown predicate {predicate!r}")


def poly_dot(xs, ys, p):
    """sum(x * y) over GF(p)[x] for little-endian coefficient lists, by the
    schoolbook double loop, reduced mod p once and trimmed of trailing zeros."""
    out = [0] * max((len(x) + len(y) for x, y in zip(xs, ys)), default=0)
    for x, y in zip(xs, ys):
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    return poly_trim(c % p for c in out)


def poly_mul(a, b, p):
    """The product of two polynomials over GF(p), schoolbook."""
    return poly_dot([a], [b], p)


def series_inverse(z0, coeffs):
    """The inverse of the unit series z0 + c1*x + ... (z0 = +-1) modulo
    x^(1 + len(coeffs)), by the closed-form recurrence
    inv_i = -(c1*inv_(i-1) + ... + ci*inv_0) / z0, as Fractions."""
    cs = [Fraction(z0), *map(Fraction, coeffs)]
    inv = [Fraction(z0)]
    for i in range(1, len(cs)):
        inv.append(-sum(cs[j] * inv[i - j] for j in range(1, i + 1)) / z0)
    return inv


_ORACLE_DIM_BOUND = 6


def determinantal_divisors(A):
    """(D_1, ..., D_r): D_k is the canonical gcd of all k x k minors.

    Only over Z and GF(p)[x] (elementary divisors are not determined this
    way in the presence of zero divisors). Computed directly from minors;
    shares nothing with diagonal_reduce.
    """
    ring = A.ring
    if not isinstance(ring, (IntegerRing, PrimeFieldPolynomialRing)):
        raise UnsupportedRing(f"determinantal divisors are not defined over {ring}")
    r = min(A.rows, A.cols)
    if r > _ORACLE_DIM_BOUND:
        raise ScaleExceeded(f"oracle limited to min dimension {_ORACLE_DIM_BOUND}")
    out = []
    for k in range(1, r + 1):
        if out and out[-1].is_zero():
            out.append(ring.zero)
            continue
        g = ring.zero
        for rows in itertools.combinations(range(A.rows), k):
            for cols in itertools.combinations(range(A.cols), k):
                sub = RingMatrix(ring, [[A.entries[i][j] for j in cols] for i in rows])
                g = gcd_bezout(g, sub.det()).g
        out.append(g)
    return out


def elementary_divisors_oracle(A):
    """Successive quotients D_k / D_{k-1}, zero once D_k vanishes."""
    ring = A.ring
    out = []
    prev = ring.one
    for dk in determinantal_divisors(A):
        out.append(ring.zero if dk.is_zero() else divide_exact(dk, prev))
        prev = dk
    return out


def in_ideal(ring, elements, target):
    """Whether target lies in the ideal the elements generate, from plain
    gcds of the payloads: math.gcd over Z and Z/n (n joins the gcd), Euclid
    on coefficient tuples over GF(p)[x], and componentwise over products."""
    if isinstance(ring, ProductRing):
        return all(
            in_ideal(f, [RingElement(f, e.payload[i]) for e in elements], RingElement(f, target.payload[i]))
            for i, f in enumerate(ring.factors)
        )
    if isinstance(ring, PrimeFieldPolynomialRing):
        g = ()
        for e in elements:
            g = poly_gcd(g, e.payload, ring.p)
        return not poly_divmod(target.payload, g, ring.p)[1] if g else not target.payload
    g = math.gcd(*(e.payload for e in elements), getattr(ring, "n", 0))
    return target.payload % g == 0 if g else target.payload == 0


def pair_unimodular_by_scan(a, b):
    """The definition of aR + bR = R itself: scan {a*x + b*y} for 1 (finite
    rings only)."""
    ring = a.ring
    if ring.cardinality() is None:
        raise UnsupportedRing("scan needs a finite ring")
    one = ring.one
    for x in ring.iter_elements():
        ax = a * x
        for y in ring.iter_elements():
            if ax + b * y == one:
                return True
    return False


# edr's argparse parser as it was before the command line was read against
# an option table: the reference the table's namespaces and messages match


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we want 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="edr", description="exact diagonal reduction toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", help="ring descriptor, e.g. Z, Z/12, GF(5)[x], Zser8, prod(Z,Z)")
    common.add_argument("--matrix", help="matrix file (text format with ring/shape header)")
    common.add_argument("--out", help="write the result document here instead of stdout")
    common.add_argument("--seed", type=int, help="reserved for reproducible harnesses; unused")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reduce", parents=[common], help="diagonal reduction certificate for a matrix")

    p = sub.add_parser("complete", parents=[common], help="complete a row to a prescribed determinant")
    p.add_argument("--row", required=True, help="comma-separated element literals")
    p.add_argument("--det", required=True, help="target determinant literal")

    p = sub.add_parser("split", parents=[common], help="adequate factorization of a against b")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--pi", action="store_true", help="power split through idempotents (Z/n)")

    p = sub.add_parser("lift", parents=[common], help="stable-range lift for a unimodular triple")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--sr2", action="store_true", help="reduce the triple to a unimodular pair instead")

    p = sub.add_parser("check", parents=[common], help="exhaustive predicate check on a finite ring")
    p.add_argument("--predicate", required=True, choices=checkers.PREDICATES)

    p = sub.add_parser("verify", parents=[common], help="verify an externally supplied certificate")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    return parser
