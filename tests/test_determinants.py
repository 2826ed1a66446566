"""RingMatrix.det against the Leibniz oracle and Bareiss alone, the
determinants the reduction records, and verifier cost on large
certificates."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edr.errors import DescriptorMismatch, UnsupportedRing
from edr.matrices import RingMatrix, _det, _peel, _zn_det
from edr.complete import complete_row
from edr.reduce import ReductionCertificate, diagonal_reduce, kaplansky_2x2, verify_reduction
from edr.rings import (
    _NEWTON_CROSSOVER,
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    TruncatedSeriesRing,
    gcd_bezout,
    is_prime,
    is_unit,
    _preciprocal,
)

from oracles import lifted_bareiss_det, perm_det

Z = IntegerRing()
Z360 = ModularRing(360)
GF5 = PrimeFieldPolynomialRing(5)


def _element(ring, rng):
    if isinstance(ring, IntegerRing):
        return ring.from_int(rng.choice([0, rng.randint(-9, 9), rng.randint(-999, 999)]))
    if isinstance(ring, ModularRing):
        return ring.from_int(rng.randrange(ring.n))
    if isinstance(ring, PrimeFieldPolynomialRing):
        return ring.element([rng.randrange(ring.p) for _ in range(rng.randint(0, 3))])
    return ring.element([_element(f, rng) for f in ring.factors])


def _matrix(ring, rng, m, n):
    return [[_element(ring, rng) for _ in range(n)] for _ in range(m)]


DET_RINGS = [
    Z,
    Z360,
    ModularRing(7),
    GF5,
    PrimeFieldPolynomialRing(2),
    ProductRing([Z, ModularRing(12)]),
    ProductRing([GF5, ModularRing(8), Z]),
]


@pytest.mark.parametrize("ring", DET_RINGS, ids=str)
def test_det_matches_leibniz(ring):
    rng = random.Random(f"det/{ring}")
    for n in range(1, 8):
        for _ in range(12 if n < 6 else 2):
            rows = _matrix(ring, rng, n, n)
            assert RingMatrix(ring, rows).det() == perm_det(rows), (n, rows)


@pytest.mark.parametrize("ring", DET_RINGS, ids=str)
def test_det_zero_pivots_singular_and_1x1(ring):
    rng = random.Random(f"det-edge/{ring}")
    zero = ring.zero
    for n in range(2, 6):
        rows = _matrix(ring, rng, n, n)
        # zero leading column entries force a row swap before elimination
        for i in range(n - 1):
            rows[i][0] = zero
        assert RingMatrix(ring, rows).det() == perm_det(rows)
        # a zero column and a repeated row are singular
        singular = [row[:] for row in rows]
        for row in singular:
            row[n - 1] = zero
        assert RingMatrix(ring, singular).det() == zero
        repeated = [row[:] for row in rows]
        repeated[n - 1] = repeated[0]
        assert RingMatrix(ring, repeated).det() == perm_det(repeated)
    for _ in range(5):
        e = _element(ring, rng)
        assert RingMatrix(ring, [[e]]).det() == e


@pytest.mark.parametrize(
    "make", [lambda: TruncatedSeriesRing(3), lambda: ProductRing([Z, TruncatedSeriesRing(3)])],
    ids=["Zser3", "prod(Z,Zser3)"],
)
def test_no_matrices_without_an_op_table_in_every_component(make):
    # the product is refused as it is built, before any matrix
    with pytest.raises(UnsupportedRing):
        ring = make()
        RingMatrix(ring, [[ring.one]])
    with pytest.raises(UnsupportedRing):
        RingMatrix.identity(make(), 2)


def test_det_swap_sign_and_non_square():
    M = RingMatrix.from_payloads(Z, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert M.det() == Z.from_int(-1)
    with pytest.raises(ValueError):
        RingMatrix.from_payloads(Z, [[1, 2]]).det()


def test_matrix_refusals():
    for rows in ([], [[]]):
        with pytest.raises(ValueError, match="at least one row"):
            RingMatrix(Z, rows)
    with pytest.raises(ValueError, match="ragged"):
        RingMatrix.from_payloads(Z, [[1, 2], [3]])
    with pytest.raises(DescriptorMismatch, match="entry"):
        RingMatrix(Z, [[Z.one, Z360.one]])
    with pytest.raises(DescriptorMismatch, match="rings differ"):
        RingMatrix.identity(Z, 2) * RingMatrix.identity(Z360, 2)
    with pytest.raises(ValueError, match="inner dimensions"):
        RingMatrix.from_payloads(Z, [[1, 2]]) * RingMatrix.from_payloads(Z, [[1, 2]])


# ---------------------------------------------------------------------------
# peeling singleton lines before Bareiss


def _nonzero(ring, rng):
    while True:
        e = _element(ring, rng)
        if not e.is_zero():
            return e.payload


def _peelable(ring, rng, n, core, empty):
    """Payload rows of [[T, X], [0, C]] with rows and columns shuffled: T is
    upper triangular with a nonzero diagonal, so its columns peel one by
    one, and C is a core x core block with no zero entry, which peels no
    further (core is 0 or at least 2: a 1 x 1 block is a singleton). With
    `empty`, one row or one column is then zeroed out. A product draws each
    component on its own, so its components have different shapes."""
    if isinstance(ring, ProductRing):
        parts = [_peelable(f, rng, n, core, empty) for f in ring.factors]
        return [list(zip(*rows)) for rows in zip(*parts)]
    t = n - core
    rows = []
    for i in range(n):
        if i < t:
            rows.append([_nonzero(ring, rng) if j == i else ring.zero.payload if j < i else _element(ring, rng).payload for j in range(n)])
        else:
            rows.append([ring.zero.payload if j < t else _nonzero(ring, rng) for j in range(n)])
    order = rng.sample(range(n), n)
    rows = [[rows[i][j] for j in order] for i in rng.sample(range(n), n)]
    if empty:
        k = rng.randrange(n)
        if rng.random() < 0.5:
            rows[k] = [ring.zero.payload] * n
        else:
            for row in rows:
                row[k] = ring.zero.payload
    return rows


@settings(max_examples=300, deadline=None)
@given(
    ring=st.sampled_from(DET_RINGS),
    n=st.integers(1, 7),
    core=st.integers(0, 7),
    empty=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_peeled_det_matches_bareiss_alone_and_leibniz(ring, n, core, empty, seed):
    core = min(core, n)
    if core == 1:
        core = 0
    rows = _peelable(ring, random.Random(seed), n, core, empty)
    det = _det(ring, [row[:] for row in rows])
    assert det == lifted_bareiss_det(ring, rows)
    if isinstance(ring, IntegerRing):
        assert det == perm_det(rows)
    if not isinstance(ring, ProductRing):
        peeled = _peel(rows)
        if empty:
            assert peeled is None and not det
        else:
            assert len(peeled[1]) == len(peeled[2]) == core


def _prime_above(v):
    while not is_prime(v):
        v += 1
    return v


_P256 = _prime_above(2**127 + 1)
_Q256 = _prime_above(_P256 + 2)
# each modulus with a proper divisor (1 for a prime), so that draws hit the
# zero divisors of every non-prime n, the 256-bit p*q among them
ZN_MODULI = [(2, 1), (4, 2), (12, 6), (36, 6), (97, 1), (360, 12), (1024, 32), (8633, 89), (2**64 + 13, 1), (_P256 * _Q256, _P256)]


def _zn_block(rng, n, f, m, cols):
    """m x cols residues mod n: about 30 % zeros, then multiples of f and
    free residues in equal parts."""
    def entry():
        roll = rng.random()
        return 0 if roll < 0.3 else f * rng.randrange(n) % n if roll < 0.65 else rng.randrange(n)
    return [[entry() for _ in range(cols)] for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(
    modulus=st.sampled_from(ZN_MODULI),
    shape=st.sampled_from(["Z/n", "prod(Z,Z/n)", "prod(Z/n,Z/12)"]),
    peeled=st.integers(0, 3),
    core=st.integers(0, 8),
    zero_pivot=st.booleans(),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_zn_det_matches_the_lifted_bareiss(modulus, shape, peeled, core, zero_pivot, zero_column, seed):
    # [[T, X], [0, C]]: T upper triangular with `peeled` rows, which peel one
    # by one when T's diagonal is nonzero, and C a core x core block that the
    # Z/n elimination sees, its first pivot zero or a column zeroed if drawn
    n, f = modulus
    rng = random.Random(seed)
    if not core:  # a matrix has at least one row
        peeled = max(peeled, 1)
    size = peeled + core
    C = _zn_block(rng, n, f, core, core)
    if core and zero_pivot:
        C[0][0] = 0
    if core and zero_column:
        k = rng.randrange(core)
        for row in C:
            row[k] = 0
    T = _zn_block(rng, n, f, peeled, size)
    for i, row in enumerate(T):
        row[:i] = [0] * i
    rows = T + [[0] * peeled + row for row in C]
    if core:
        assert _zn_det([row[:] for row in C], n) == lifted_bareiss_det(ModularRing(n), C)
    ring = ModularRing(n)
    if shape == "prod(Z,Z/n)":
        ring, parts = ProductRing([Z, ring]), ([[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)], rows)
    elif shape == "prod(Z/n,Z/12)":
        ring, parts = ProductRing([ring, ModularRing(12)]), (rows, _zn_block(rng, 12, 2, size, size))
    if shape != "Z/n":
        rows = [list(zip(*lines)) for lines in zip(*parts)]
    assert _det(ring, [row[:] for row in rows]) == lifted_bareiss_det(ring, rows)


def test_bareiss_takes_one_reciprocal_per_step(monkeypatch):
    # the division of a step by the previous pivot builds its Newton
    # reciprocal once for the step, not once for each of its rows: a dense
    # 12 x 12 GF(5)[x] core divides in n - 2 steps
    calls = []

    def counted(f, k, p):
        calls.append(1)
        return _preciprocal(f, k, p)

    monkeypatch.setattr("edr.rings._preciprocal", counted)
    rng, n, length = random.Random(12), 12, _NEWTON_CROSSOVER + 1
    rows = [[(*(rng.randrange(5) for _ in range(length - 1)), rng.randrange(1, 5)) for _ in range(n)] for _ in range(n)]
    assert _det(GF5, rows)
    assert len(calls) <= n - 2, len(calls)


def test_peel_finds_singletons_that_appear_as_lines_are_peeled():
    # only column 0 starts as a singleton; each peel leaves the next one
    rows = [[3, 1, 2, 5], [0, -2, 7, 1], [0, 0, 5, 4], [0, 0, 0, -1]]
    pairs, core_rows, core_cols, odd = _peel(rows)
    assert sorted(pairs) == [(0, 0), (1, 1), (2, 2), (3, 3)] and not core_rows and not odd
    assert _det(Z, rows) == 30
    # reversing four rows is an even permutation, swapping two is odd
    reversed_rows = rows[::-1]
    assert _det(Z, reversed_rows) == perm_det(reversed_rows) == 30
    swapped = [rows[1], rows[0], rows[2], rows[3]]
    assert _det(Z, swapped) == perm_det(swapped) == -30


def test_completion_matrices_peel_to_a_small_core():
    row = [Z.from_int(6 + 10 * i) for i in range(120)]
    cert = complete_row(row, Z.from_int(2))
    rows = cert.A.payload_lists()
    _, core_rows, _, _ = _peel(rows)
    assert len(core_rows) <= 8  # 2 here; 8 is the largest seen, over Z/360
    assert _det(Z, rows) == 2


# ---------------------------------------------------------------------------
# the determinants a reduction records


REDUCE_RINGS = [Z, Z360, ModularRing(12), GF5, ProductRing([Z, ModularRing(12)]), ProductRing([GF5, Z])]


@pytest.mark.parametrize("ring", REDUCE_RINGS, ids=str)
def test_recorded_determinants_are_the_determinants(ring):
    rng = random.Random(f"recorded/{ring}")
    for m, n in [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3), (3, 5), (5, 5)]:
        for _ in range(3):
            A = RingMatrix(ring, _matrix(ring, rng, m, n))
            cert = diagonal_reduce(A)
            assert cert.detP_unit == perm_det(cert.P.to_lists())
            assert cert.detQ_unit == perm_det(cert.Q.to_lists())
            assert is_unit(cert.detP_unit) and is_unit(cert.detQ_unit)
            assert verify_reduction(A, cert).ok


def _unimodular_triples(ring, rng, count):
    out = []
    while len(out) < count:
        a, b, c = (_element(ring, rng) for _ in range(3))
        if is_unit(gcd_bezout(gcd_bezout(a, b).g, c).g):
            out.append((a, b, c))
    return out


@pytest.mark.parametrize("ring", [Z, Z360, GF5], ids=str)
def test_kaplansky_recorded_determinants_every_branch(ring):
    # the paths that exist: c = 0, and the split construction with a = 0
    # and with a != 0
    rng = random.Random(f"kaplansky/{ring}")
    zero = ring.zero
    cases = list(_unimodular_triples(ring, rng, 12))
    for a, b, c in _unimodular_triples(ring, rng, 30):
        if is_unit(gcd_bezout(b, c).g):
            cases.append((zero, b, c))
        if is_unit(gcd_bezout(a, b).g):
            cases.append((a, b, zero))
    ran = set()
    for a, b, c in cases:
        cert = kaplansky_2x2(a, b, c)
        ran.add("c=0" if c.is_zero() else "a=0" if a.is_zero() else "split")
        assert cert.detP_unit == perm_det(cert.P.to_lists())
        assert cert.detQ_unit == perm_det(cert.Q.to_lists())
        A = RingMatrix(ring, [[a, zero], [b, c]])
        assert verify_reduction(A, cert).ok
    assert ran == {"a=0", "c=0", "split"}


# ---------------------------------------------------------------------------
# verifier cost and large reductions


def _unit_lower_inverse(L):
    """X with L*X = I for a unit lower triangular L (forward substitution)."""
    n = len(L)
    ring = L[0][0].ring
    X = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.one if i == j else ring.zero
            for k in range(j, i):
                acc = acc - L[i][k] * X[k][j]
            row.append(acc)
        X.append(row)
    return X


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _triangular_certificate(ring, n, seed):
    """A = L*D*U with L unit lower and U unit upper; the certificate holds
    P = L^-1 (unit lower) and Q = U^-1 (unit upper), so det P = det Q = 1."""
    rng = random.Random(seed)
    one, zero = ring.one, ring.zero
    L = [[one if i == j else ring.from_int(rng.randint(-9, 9)) if j < i else zero for j in range(n)] for i in range(n)]
    Ut = [[one if i == j else ring.from_int(rng.randint(-9, 9)) if j < i else zero for j in range(n)] for i in range(n)]
    diag = [1] * (n - 3) + [2, 4, 12]
    D = [[ring.from_int(diag[i]) if i == j else zero for j in range(n)] for i in range(n)]
    A = RingMatrix(ring, L) * RingMatrix(ring, D) * RingMatrix(ring, _transpose(Ut))
    P = RingMatrix(ring, _unit_lower_inverse(L))
    Q = RingMatrix(ring, _transpose(_unit_lower_inverse(Ut)))
    return A, ReductionCertificate(P, RingMatrix(ring, D), Q, one, one)


@pytest.mark.parametrize("ring", [Z, Z360], ids=str)
def test_verify_40x40_triangular_certificate_is_fast(ring):
    A, cert = _triangular_certificate(ring, 40, seed=40)
    t0 = time.perf_counter()
    report = verify_reduction(A, cert)
    elapsed = time.perf_counter() - t0
    assert report.ok, report.failures
    assert elapsed < 5.0, elapsed


def test_gf5_32x32_dense_reduce_and_verify_is_fast():
    """The verifier's determinant of P once grew about as n^6 over GF(p)[x]
    (schoolbook division of minors whose degree grows with n); with the
    Newton row division, verify costs about as much as the reduction."""
    rnd = random.Random(32)  # drawn row by row, 4 coefficients an entry
    A = RingMatrix.from_payloads(GF5, [[[rnd.randrange(5) for _ in range(4)] for _ in range(32)] for _ in range(32)])
    t0 = time.perf_counter()
    report = verify_reduction(A, diagonal_reduce(A))
    elapsed = time.perf_counter() - t0
    assert report.ok, report.failures
    assert elapsed < 10.0, elapsed


def _dense(ring, seed, n, draw):
    rng = random.Random(seed)
    return RingMatrix.from_payloads(ring, [[draw(rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize(
    "ring, seed, n, draw",
    [
        (Z, 24, 24, lambda rng: rng.randint(-9, 9)),
        (Z360, 20000, 20, lambda rng: rng.randrange(360)),
        (Z, 20, 20, lambda rng: rng.randint(-9, 9)),
    ],
    ids=["Z-24x24", "Z360-20x20", "Z-20x20"],
)
def test_large_dense_reduce_and_verify(ring, seed, n, draw):
    A = _dense(ring, seed, n, draw)
    t0 = time.perf_counter()
    cert = diagonal_reduce(A)
    report = verify_reduction(A, cert)
    elapsed = time.perf_counter() - t0
    assert report.ok, report.failures
    assert elapsed < 10.0, elapsed
    if isinstance(ring, IntegerRing):
        # the product of the invariant factors is |det A| (Hadamard-sized here)
        d = math.prod(cert.D.entries[i][i].payload for i in range(n))
        assert d == abs(A.det().payload)
