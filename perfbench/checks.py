"""Output checks made apart from edr.

Each check recomputes what an output must be, or a property it must have,
with plain Python ints, `math.gcd`, `pow`, a few polynomial helpers written
here and sympy; none of it imports edr. The checks run after the timed
region. They return None when the output is right and a one-line reason
when it is not.

Ring specs are plain tuples: ("Z",), ("Zn", n), ("GF", p), ("Zser", k) and
("prod", (spec, ...)). Element values are ints, little-endian coefficient
tuples (GF), tuples of Fractions led by an int (Zser) and tuples of
component values (prod).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# integers


def is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def radical(n):
    r, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            r *= d
            while n % d == 0:
                n //= d
        d += 1
    return r * n if n > 1 else r


def strip_shared(s, b):
    """s with every factor it shares with b divided out: +-1 exactly when
    every prime of s divides b."""
    while (g := math.gcd(s, b)) != 1:
        s //= g
    return s


# ---------------------------------------------------------------------------
# polynomials over GF(p): little-endian tuples, no trailing zeros


def ptrim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a, b, p):
    n = max(len(a), len(b))
    return ptrim(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n))


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(c % p for c in out)


def pdivmod(a, b, p):
    b = ptrim(b)
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] = (a[i + j] - c * y) % p
    return ptrim(q), ptrim(a)


def pmonic(a, p):
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def pgcd(a, b, p):
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p)


def pstrip_shared(s, b, p):
    while (g := pgcd(s, b, p)) != (1,):
        s = pdivmod(s, g, p)[0]
    return s


def pgcd_all(row, p):
    g = ()
    for f in row:
        g = pgcd(g, f, p)
    return g


# ---------------------------------------------------------------------------
# plain ring arithmetic per spec


def add(spec, x, y):
    kind = spec[0]
    if kind == "Z":
        return x + y
    if kind == "Zn":
        return (x + y) % spec[1]
    if kind == "GF":
        return padd(x, y, spec[1])
    return tuple(add(f, a, b) for f, a, b in zip(spec[1], x, y))


def mul(spec, x, y):
    kind = spec[0]
    if kind == "Z":
        return x * y
    if kind == "Zn":
        return x * y % spec[1]
    if kind == "GF":
        return pmul(x, y, spec[1])
    return tuple(mul(f, a, b) for f, a, b in zip(spec[1], x, y))


def zero(spec):
    kind = spec[0]
    if kind in ("Z", "Zn"):
        return 0
    if kind == "GF":
        return ()
    return tuple(zero(f) for f in spec[1])


def normal(spec, x):
    """Canonical value of an element given by a possibly unreduced value."""
    kind = spec[0]
    if kind == "Zn":
        return x % spec[1]
    if kind == "GF":
        return ptrim(c % spec[1] for c in x)
    if kind == "prod":
        return tuple(normal(f, c) for f, c in zip(spec[1], x))
    return x


def matmul(spec, X, Y):
    out = []
    for row in X:
        new = []
        for j in range(len(Y[0])):
            acc = zero(spec)
            for k, x in enumerate(row):
                acc = add(spec, acc, mul(spec, x, Y[k][j]))
            new.append(acc)
        out.append(new)
    return out


def component(spec, M, idx):
    return [[v[idx] for v in row] for row in M]


def cardinality(spec):
    if spec[0] == "Zn":
        return spec[1]
    return math.prod(cardinality(f) for f in spec[1])


# ---------------------------------------------------------------------------
# sympy: Smith form and Bareiss determinants


@lru_cache(maxsize=None)
def _gf_domain(p):
    from sympy import GF, symbols

    return GF(p)[symbols("x")]


def _domain_rows(spec, M):
    from sympy import ZZ

    if spec[0] in ("Z", "Zn"):
        return ZZ, [[ZZ(v) for v in row] for row in M]
    K = _gf_domain(spec[1])
    return K, [[K.ring.from_dict({(i,): c for i, c in enumerate(v) if c}) for v in row] for row in M]


def _from_sympy_poly(f, p):
    d = f.to_dict()
    deg = max((k[0] for k in d), default=-1)
    return ptrim(int(d.get((i,), 0)) % p for i in range(deg + 1))


def smith_diagonal(spec, M):
    """Canonical diagonal of the Smith form, via sympy's invariant_factors.

    Z/n: Smith form of the integer lift with each d_i mapped to gcd(d_i, n),
    the canonical associate class of d_i mod n. GF(p)[x]: made monic.
    Products: componentwise."""
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    kind = spec[0]
    if kind == "prod":
        parts = [smith_diagonal(f, component(spec, M, i)) for i, f in enumerate(spec[1])]
        return [tuple(vs) for vs in zip(*parts)]
    K, rows = _domain_rows(spec, M)
    facs = invariant_factors(DomainMatrix(rows, (len(M), len(M[0])), K))
    if kind == "Z":
        return [abs(int(d)) for d in facs]
    if kind == "Zn":
        n = spec[1]
        return [math.gcd(int(d), n) % n for d in facs]
    return [pmonic(_from_sympy_poly(d, spec[1]), spec[1]) for d in facs]


def bareiss_det(spec, M):
    """Determinant by fraction-free Bareiss elimination: sympy's ddm_idet
    over ZZ for Z and Z/n (reduced mod n afterwards), the same elimination
    on sympy's dense GF(p)[x] arithmetic (galoistools) for polynomials.
    Products are not handled here."""
    if spec[0] == "GF":
        return _gf_bareiss(M, spec[1])
    from sympy import ZZ
    from sympy.polys.matrices.dense import ddm_idet

    d = int(ddm_idet([[ZZ(v) for v in row] for row in M], ZZ))
    return d % spec[1] if spec[0] == "Zn" else d


def _gf_bareiss(M, p):
    from sympy import ZZ
    from sympy.polys.galoistools import gf_mul, gf_quo, gf_sub

    M = [[list(reversed(v)) for v in row] for row in M]  # big-endian for galoistools
    n, sign, prev = len(M), 1, [1]
    for k in range(n - 1):
        if not M[k][k]:
            i = next((i for i in range(k + 1, n) if M[i][k]), None)
            if i is None:
                return ()
            M[k], M[i] = M[i], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                cross = gf_sub(
                    gf_mul(M[i][j], M[k][k], p, ZZ), gf_mul(M[i][k], M[k][j], p, ZZ), p, ZZ
                )
                M[i][j] = gf_quo(cross, prev, p, ZZ)
        prev = M[k][k]
    return ptrim(sign * c % p for c in reversed(M[n - 1][n - 1]))


def det_is_unit(spec, M):
    kind = spec[0]
    if kind == "prod":
        return all(det_is_unit(f, component(spec, M, i)) for i, f in enumerate(spec[1]))
    d = bareiss_det(spec, M)
    if kind == "Z":
        return d in (1, -1)
    if kind == "Zn":
        return math.gcd(d, spec[1]) == 1
    return len(d) == 1


# ---------------------------------------------------------------------------
# reductions


def reduction(spec, A, P, D, Q):
    m, n = len(A), len(A[0])
    if (len(P), len(P[0]), len(Q), len(Q[0]), len(D), len(D[0])) != (m, m, n, n, m, n):
        return "certificate shapes"
    diag = smith_diagonal(spec, A)
    want = [[diag[i] if i == j else zero(spec) for j in range(n)] for i in range(m)]
    if D != want:
        return f"D differs from the Smith form {diag}"
    if matmul(spec, matmul(spec, P, [[normal(spec, v) for v in row] for row in A]), Q) != D:
        return "P*A*Q != D"
    if not det_is_unit(spec, P):
        return "det P is not a unit"
    if not det_is_unit(spec, Q):
        return "det Q is not a unit"
    return None


def parse_literal(spec, text):
    """Element literal -> plain value (independent of edr.parsing). Raises
    ValueError on a literal that is not in canonical written form."""
    kind = spec[0]
    if kind == "Zser":
        z0, _, rest = text[1:-1].partition(";")
        value = (int(z0), *(Fraction(c) for c in rest.split(",") if c))
        if len(value) != spec[1]:
            raise ValueError(f"{text!r} does not have {spec[1]} coefficients")
        return value
    value = _from_json(spec, json.loads(text.replace("(", "[").replace(")", "]")))
    if value != normal(spec, value):
        raise ValueError(f"{text!r} is not canonical")
    return value


def _from_json(spec, v):
    kind = spec[0]
    if kind in ("Z", "Zn"):
        if not isinstance(v, int):
            raise ValueError(f"{v!r} is not an integer literal")
        return v
    if kind == "GF":
        return tuple(v)
    if len(v) != len(spec[1]):
        raise ValueError(f"{v!r} does not have {len(spec[1])} components")
    return tuple(_from_json(f, c) for f, c in zip(spec[1], v))


def _doc(out, kind):
    code, text = out
    if code != 0:
        return None, f"exit code {code}: {text[:120]!r}"
    doc = json.loads(text)
    if doc.get("kind") != kind:
        return None, f"document kind {doc.get('kind')!r}, wanted {kind!r}"
    return doc, None


def _rows(spec, mdoc):
    return [[parse_literal(spec, s) for s in row] for row in mdoc["rows"]]


def reduce_doc(spec, A, out):
    doc, err = _doc(out, "reduction-certificate")
    if err:
        return err
    return reduction(spec, A, *(_rows(spec, doc[k]) for k in ("P", "D", "Q")))


def complete_doc(spec, row, d, out):
    doc, err = _doc(out, "completion-certificate")
    if err:
        return err
    A = _rows(spec, doc["A"])
    if A[0] != list(row) or [parse_literal(spec, s) for s in doc["first_row"]] != list(row):
        return "first row changed"
    if len(A) != len(row) or any(len(r) != len(row) for r in A):
        return "completion is not square"
    if bareiss_det(spec, A) != normal(spec, d):
        return "det A != d"
    return None


def split_doc(spec, a, b, out):
    kind = spec[0]
    if kind == "Zser":
        doc, err = _doc(out, "series-split")
        if err:
            return err
        s, t = parse_literal(spec, doc["s"]), parse_literal(spec, doc["t"])
        if series_mul(s, t) != tuple(Fraction(c) for c in a):
            return "s*t != f"
        if math.gcd(s[0], b[0]) != 1:
            return "constant of s meets g"
        if abs(strip_shared(t[0], b[0])) != 1:
            return "a prime of t's constant misses g"
        return None

    doc, err = _doc(out, "adequate-split")
    if err:
        return err
    v = {k: parse_literal(spec, doc[k]) for k in ("r", "s")}
    w = {k: parse_literal(spec, doc["witness"][k]) for k in ("g", "x", "y", "a1", "b1")}
    r, s, m = v["r"], v["s"], doc["m"]
    if kind == "Z":
        if m != 1 or r * s != a:
            return "r*s != a"
        if math.gcd(r, b) != 1:
            return "gcd(r, b) != 1"
        if abs(strip_shared(s, b)) != 1:
            return "a prime of s misses b"
    elif kind == "Zn":
        n = spec[1]
        if m < 1 or r * s % n != pow(a, m, n):
            return "r*s != a^m"
        if math.gcd(r, b, n) != 1:
            return "gcd(r, b, n) != 1"
        if strip_shared(math.gcd(s, n), math.gcd(b, n)) != 1:
            return "a prime of s misses b"
    else:
        p = spec[1]
        if m != 1 or pmul(r, s, p) != a:
            return "r*s != a"
        if pgcd(r, b, p) != (1,):
            return "gcd(r, b) != 1"
        if len(pstrip_shared(s, b, p)) > 1:
            return "a prime of s misses b"
    one = 1 if kind != "GF" else (1,)
    identities = (
        (add(spec, mul(spec, w["x"], r), mul(spec, w["y"], b)), w["g"]),
        (mul(spec, w["a1"], w["g"]), normal(spec, r)),
        (mul(spec, w["b1"], w["g"]), normal(spec, b)),
        (add(spec, mul(spec, w["x"], w["a1"]), mul(spec, w["y"], w["b1"])), normal(spec, one)),
    )
    if any(lhs != rhs for lhs, rhs in identities):
        return "Bezout witness identities"
    return None


def series_mul(s, t):
    k = len(s)
    out = [Fraction(0)] * k
    for i in range(k):
        for j in range(k - i):
            out[i + j] += Fraction(s[i]) * t[j]
    return tuple(out)


def lift_doc(spec, a, b, c, sr2, out):
    doc, err = _doc(out, "lift")
    if err:
        return err
    n = spec[1] if spec[0] == "Zn" else 0
    if sr2:
        y1, y2 = (parse_literal(spec, doc[k]) for k in ("y1", "y2"))
        if math.gcd(a + c * y1, b + c * y2, n) != 1:
            return "(a + c*y1, b + c*y2) is not unimodular"
    else:
        y = parse_literal(spec, doc["y"])
        if math.gcd(a, b + c * y, n) != 1:
            return "(a, b + c*y) is not unimodular"
    return None


# ---------------------------------------------------------------------------
# finite predicates: every finite commutative ring is stable-range-1, clean,
# pm and J-stable, so `holds` must be true; the scan count is recounted


def unimodular_pairs(n):
    return sum(1 for a in range(n) for b in range(n) if math.gcd(a, b, n) == 1)


def elements_scanned(spec, predicate):
    moduli = [spec[1]] if spec[0] == "Zn" else [f[1] for f in spec[1]]
    size = math.prod(moduli)
    if predicate in ("Clean", "PmRing"):
        return size
    pairs = math.prod(unimodular_pairs(n) for n in moduli)
    if predicate == "StableRange1":
        return pairs
    # JStableCondition skips a in the Jacobson radical: every component
    # divisible by its modulus' radical
    radical_members = math.prod(n // radical(n) for n in moduli)
    return (size - radical_members) * pairs


def predicate(spec, name, holds, scanned):
    if holds is not True:
        return f"{name} reported false"
    want = elements_scanned(spec, name)
    if scanned != want:
        return f"elements_scanned {scanned}, recount {want}"
    return None


def predicate_doc(spec, name, out):
    doc, err = _doc(out, "predicate-report")
    if err:
        return err
    if doc["witness"] is not None:
        return "witness on a ring where the predicate holds"
    return predicate(spec, name, doc["holds"], doc["elements_scanned"])


def verify_ok_doc(out):
    doc, err = _doc(out, "verification-report")
    if err:
        return err
    return None if doc == {"kind": "verification-report", "ok": True, "failures": []} else "verify failed"


def refused_doc(exit_code, error, out):
    code, text = out
    if code != exit_code:
        return f"exit code {code}, wanted {exit_code}"
    if json.loads(text).get("error") != error:
        return f"error {text[:80]!r}, wanted {error}"
    return None


# ---------------------------------------------------------------------------
# certificates made by the benchmark itself, for the `verify` readers


def synthetic_certificate(rng, n, p):
    """A 3x3 matrix A over Z/n and a certificate P*A*Q = diag(1, p, 0) with
    P unit lower and Q unit upper triangular, so det P = det Q = 1."""
    k = 3
    L = [[1 if i == j else (rng.randrange(n) if j < i else 0) for j in range(k)] for i in range(k)]
    U = [[1 if i == j else (rng.randrange(n) if j > i else 0) for j in range(k)] for i in range(k)]
    D = [[(1, p, 0)[i] if i == j else 0 for j in range(k)] for i in range(k)]
    spec = ("Zn", n)
    A = matmul(spec, matmul(spec, _unit_lower_inverse(L, n), D), _transpose(_unit_lower_inverse(_transpose(U), n)))
    if matmul(spec, matmul(spec, L, A), U) != D:
        raise AssertionError("synthetic certificate does not multiply out")

    def mdoc(M):
        return {"shape": [k, k], "rows": [[str(v) for v in row] for row in M]}

    doc = {
        "kind": "reduction-certificate",
        "ring": f"Z/{n}",
        "P": mdoc(L),
        "D": mdoc(D),
        "Q": mdoc(U),
        "detP": "1",
        "detQ": "1",
    }
    return A, doc


def _transpose(M):
    return [list(col) for col in zip(*M)]


def _unit_lower_inverse(L, n):
    k = len(L)
    X = [[0] * k for _ in range(k)]
    for j in range(k):
        for i in range(k):
            s = (1 if i == j else 0) - sum(L[i][t] * X[t][j] for t in range(i))
            X[i][j] = s % n
    return X
