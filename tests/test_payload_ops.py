"""Properties of the payload op tables against the element-level surface."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edr.complete import complete_row, idempotent_complete
from edr.errors import UnsupportedRing
from edr.matrices import RingMatrix
from edr.reduce import diagonal_reduce, verify_reduction
from edr.serialize import (
    completion_certificate_from_doc,
    completion_certificate_to_doc,
    dumps,
    matrix_from_text,
    matrix_to_text,
    reduction_certificate_from_doc,
    reduction_certificate_to_doc,
)
from edr.rings import (
    IntegerRing,
    ModularRing,
    PayloadOps,
    PrimeFieldPolynomialRing,
    ProductRing,
    Ring,
    RingElement,
    TruncatedSeriesRing,
    canonical_associate,
    exact_quotient,
    gcd_bezout,
    is_unit,
    unit_inverse,
)

from oracles import series_inverse

Z = IntegerRing()
GF5 = PrimeFieldPolynomialRing(5)
# a 128-bit p*q with p = 2^64 - 59 and q = 2^64 - 83, both prime
BIG = ModularRing((2**64 - 59) * (2**64 - 83))

# with up to 40 coefficients, GF(257)[x] and GF(2^61 - 1)[x] send the matrix
# product through Kronecker slots of 2 or 4 and of 8, 16 or 17 bytes (the
# narrow ones when a factor is zero); GF(2)[x] and GF(5)[x] use 1 and 2
WIDE = [PrimeFieldPolynomialRing(257), PrimeFieldPolynomialRing(2**61 - 1)]
TABLE_RINGS = [Z, ModularRing(12), ModularRing(360), BIG, GF5, PrimeFieldPolynomialRing(2), *WIDE]
PRODUCT_RINGS = TABLE_RINGS + [ProductRing([Z, ModularRing(12), GF5])]
# product tables are composed from the factor tables, one of them nested
PRODUCT_TABLES = [PRODUCT_RINGS[-1], ProductRing([ModularRing(4), ProductRing([Z, GF5])])]
# the series' table has no Bezout gcds and no pivot size, and divides exactly
SERIES = [TruncatedSeriesRing(3), TruncatedSeriesRing(4)]


def elements(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-(2**70), 2**70).map(ring.from_int)
    if isinstance(ring, ModularRing):
        return st.integers(0, ring.n - 1).map(ring.from_int)
    if isinstance(ring, PrimeFieldPolynomialRing):
        size = 40 if ring in WIDE else 6
        return st.lists(st.integers(0, ring.p - 1), max_size=size).map(ring.element)
    if isinstance(ring, TruncatedSeriesRing):
        rest = st.lists(st.fractions(-3, 3, max_denominator=4), max_size=ring.order - 1)
        return st.builds(lambda z0, cs: ring.element([z0, *cs]), st.integers(-3, 3), rest)
    return st.tuples(*(elements(f) for f in ring.factors)).map(ring.element)


@st.composite
def matrix_pairs(draw):
    ring = draw(st.sampled_from(PRODUCT_RINGS))
    m, k, n = (draw(st.integers(1, 4)) for _ in range(3))
    A = [[draw(elements(ring)) for _ in range(k)] for _ in range(m)]
    B = [[draw(elements(ring)) for _ in range(n)] for _ in range(k)]
    if draw(st.booleans()):  # a zero row in one factor
        rows = draw(st.sampled_from([A, B]))
        rows[draw(st.integers(0, len(rows) - 1))] = [ring.zero] * len(rows[0])
    return ring, RingMatrix(ring, A), RingMatrix(ring, B)


def element_product(A, B):
    """The triple loop on elements, the reference for RingMatrix.__mul__."""
    return [
        [sum((A.entries[i][t] * B.entries[t][j] for t in range(A.cols)), A.ring.zero) for j in range(B.cols)]
        for i in range(A.rows)
    ]


def plain_dot(ring, xs, ys):
    """sum(x * y) computed on plain values, apart from edr's arithmetic."""
    if isinstance(ring, ProductRing):
        return tuple(
            plain_dot(f, [x[i] for x in xs], [y[i] for y in ys]) for i, f in enumerate(ring.factors)
        )
    if isinstance(ring, IntegerRing):
        return sum(x * y for x, y in zip(xs, ys))
    if isinstance(ring, ModularRing):
        return sum(x * y for x, y in zip(xs, ys)) % ring.n
    out = [0] * (2 * max(map(len, xs + ys), default=0))
    for x, y in zip(xs, ys):
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    out = [c % ring.p for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_matrix_product_matches_the_element_triple_loop(case):
    ring, A, B = case
    C = A * B
    assert (C.rows, C.cols) == (A.rows, B.cols)
    assert C == RingMatrix(ring, element_product(A, B))
    # payloads are plain values: ints, coefficient tuples, component tuples
    a = A.payload_lists()
    b_cols = [list(col) for col in zip(*B.payload_lists())]
    assert C.payload_lists() == [[plain_dot(ring, row, col) for col in b_cols] for row in a]


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_constructors_store_one_payload_form(case):
    # a matrix is its ring and its payload rows, however it was built
    ring, A, _ = case
    B, C = RingMatrix(ring, A.entries), RingMatrix.wrap(ring, A.payload_lists())
    assert B == A == C and hash(B) == hash(A) == hash(C)
    assert A.payloads == tuple(tuple(e.payload for e in row) for row in A.entries)


def test_equal_payloads_over_different_rings_differ():
    rows = [[1, 2], [3, 4]]
    A, B = RingMatrix.from_payloads(Z, rows), RingMatrix.from_payloads(ModularRing(7), rows)
    assert A.payloads == B.payloads and A != B


@pytest.mark.parametrize("ring", PRODUCT_RINGS, ids=str)
def test_one_by_one_and_zero_products(ring):
    x = ring.from_int(7)
    assert RingMatrix(ring, [[x]]) * RingMatrix(ring, [[x]]) == RingMatrix(ring, [[x * x]])
    zeros = RingMatrix(ring, [[ring.zero] * 3])
    col = RingMatrix(ring, [[x], [x], [x]])
    assert zeros * col == RingMatrix(ring, [[ring.zero]])


def unit_by_definition(ring, v):
    """Whether the payload v is a unit, read off the ring's structure."""
    if isinstance(ring, ProductRing):
        return all(unit_by_definition(f, c) for f, c in zip(ring.factors, v))
    if isinstance(ring, IntegerRing):
        return v in (1, -1)
    if isinstance(ring, ModularRing):
        return math.gcd(v, ring.n) == 1
    if isinstance(ring, TruncatedSeriesRing):
        return v[0] in (1, -1)
    return len(v) == 1  # a nonzero constant of GF(p)[x]


@st.composite
def table_pairs(draw):
    ring = draw(st.sampled_from(TABLE_RINGS + PRODUCT_TABLES + SERIES))
    a, b = draw(elements(ring)), draw(elements(ring))
    if draw(st.booleans()):  # b | a, which random pairs rarely give
        a = a * b
    return ring, a, b


@settings(max_examples=400, deadline=None)
@given(table_pairs())
def test_table_quotient_bezout_and_normal_agree_with_the_ring(case):
    ring, a, b = case
    ops = ring.ops
    wrap = lambda v: RingElement(ring, v)  # noqa: E731

    # division with remainder: the sweep terminates because size(r) < size(b)
    q, r = map(wrap, ops.div(a.payload, b.payload))
    assert a == q * b + r
    expected = exact_quotient(a, b)
    assert r.is_zero() == (expected is not None)
    if expected is not None:
        assert q == expected
    elif isinstance(ring, TruncatedSeriesRing):  # no remainder but a itself
        assert (q, r) == (ring.zero, a)
    if b.is_zero():
        assert (q, r) == (ring.zero, a)
    elif ops.size is not None:  # products never pivot, so they rank nothing
        assert ops.size(r.payload) < ops.size(b.payload)

    if ops.bezout is None:
        with pytest.raises(UnsupportedRing):
            gcd_bezout(a, b)
    else:
        g, x, y, a1, b1 = map(wrap, ops.bezout(a.payload, b.payload))
        bd = gcd_bezout(a, b)
        assert (g, x, y, a1, b1) == (bd.g, bd.x, bd.y, bd.a1, bd.b1)
        assert bd.holds_for(a, b)

    u, canonical = canonical_associate(a)
    u_inv = wrap(ops.normal(a.payload))
    assert is_unit(u_inv) and u_inv == unit_inverse(u)
    assert unit_by_definition(ring, u.payload)
    assert u_inv * a == canonical and u * canonical == a
    assert canonical_associate(canonical) == (ring.one, canonical)
    assert canonical_associate(-a)[1] == canonical  # one form per associate class
    for v in (a, b, u):
        inv = unit_inverse(v)
        assert (inv is not None) == unit_by_definition(ring, v.payload)
        assert inv is None or inv * v == ring.one
    assert wrap(ops.mul(a.payload, b.payload)) == a * b
    assert wrap(ops.sub(a.payload, b.payload)) == a - b
    assert wrap(ops.add(a.payload, ops.neg(b.payload))) == a - b
    assert (a.payload != ops.zero) == (not a.is_zero())
    if not isinstance(ring, (ProductRing, TruncatedSeriesRing)):  # zero is a truthy tuple
        assert bool(a.payload) == (not a.is_zero())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SERIES).flatmap(lambda ring: st.tuples(st.just(ring), elements(ring))), st.sampled_from([1, -1]))
def test_series_unit_inverse_matches_the_closed_form(case, z0):
    ring, a = case
    a = ring.element([z0, *a.payload[1:]])
    inv = unit_inverse(a)
    assert inv.payload == tuple(series_inverse(z0, a.payload[1:]))
    assert type(inv.payload[0]) is int and inv * a == ring.one


@st.composite
def series_quotients(draw):
    """(k, a, b, divides) over Zser<k>: b of any valuation below k with
    rational coefficients, and a = b*c (so b | a) when divides is set."""
    ring = TruncatedSeriesRing(draw(st.integers(1, 8)))
    k = ring.order
    valuation = draw(st.integers(0, k - 1))
    lead = draw(st.integers(1, 3) if valuation == 0 else st.fractions(1, 3, max_denominator=4))
    lead *= draw(st.sampled_from([1, -1]))
    size = k - valuation - 1
    rest = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=size, max_size=size))
    b = ring.element([0] * valuation + [lead, *rest])
    divides = draw(st.booleans())
    a = draw(elements(ring))
    if divides:
        a = b * a
    return k, a.payload, b.payload, divides


@settings(max_examples=300, deadline=None)
@given(series_quotients())
def test_series_exact_quotient_multiplies_back(case):
    k, a, b, divides = case
    ring = TruncatedSeriesRing(k)
    q, r = ring.ops.div(a, b)
    assert r == ring.ops.zero or (q, r) == (ring.ops.zero, a)
    if divides:
        assert r == ring.ops.zero
    if r == ring.ops.zero:
        # b*q truncated at x^k, on plain Fractions apart from edr's arithmetic
        assert type(q[0]) is int
        assert tuple(sum(b[j] * q[i - j] for j in range(i + 1)) for i in range(k)) == a


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ELEMENT_API = (
    "_add", "_neg", "_mul", "inverse", "exact_quotient", "divide_exact", "canonical_associate", "gcd_bezout",
)


def test_every_ring_is_an_op_table_under_one_element_api():
    rings = TABLE_RINGS + PRODUCT_TABLES + SERIES
    assert {type(r) for r in rings} == set(_subclasses(Ring))
    for cls in (Ring, *_subclasses(Ring)):
        assert not set(ELEMENT_API) & set(vars(cls)), cls
    for ring in rings:
        assert isinstance(ring.ops, PayloadOps), ring


def test_big_modulus_is_the_product_of_two_primes():
    from edr.rings import is_prime

    assert is_prime(2**64 - 59) and is_prime(2**64 - 83)
    assert BIG.n.bit_length() == 128


def _count_elements(monkeypatch):
    """A counter of RingElement constructions from here on."""
    built = [0]
    init = RingElement.__init__

    def counted(self, ring, payload):
        built[0] += 1
        init(self, ring, payload)

    monkeypatch.setattr(RingElement, "__init__", counted)
    return built


@pytest.mark.parametrize("ring", [Z, ModularRing(360), ProductRing([Z, ModularRing(12)])], ids=str)
def test_matrix_boundaries_build_few_elements(ring, monkeypatch):
    # a RingMatrix holds payload rows, so reducing, verifying and completing
    # wrap no entry: diagonal_reduce builds its two recorded determinants and
    # a few elements to test them (3n^2 + 5 when it wrapped P, D and Q),
    # verify_reduction none, as it decides every clause on payloads (a few
    # per diagonal entry of D when it wrapped them), and the completions a
    # few per row entry (about k^2 + k when they wrapped the rows)
    rnd = random.Random(3)

    def draw():
        v = rnd.randint(-9, 9)
        return (v, rnd.randrange(12)) if isinstance(ring, ProductRing) else v

    for n in (12, 24):
        A = RingMatrix.from_payloads(ring, [[draw() for _ in range(n)] for _ in range(n)])
        row = [ring.from_int(6 + 10 * i) for i in range(n)]
        if isinstance(ring, ProductRing):  # the idempotent (0, 4) lies in the row's ideal (2) x (2)
            complete, target = idempotent_complete, ring.element((0, 4))
        else:
            complete, target = complete_row, ring.from_int(2)
        built = _count_elements(monkeypatch)
        cert = diagonal_reduce(A)
        assert built[0] <= 10, ("diagonal_reduce", n, built[0])
        built[0] = 0
        assert verify_reduction(A, cert).ok
        assert built[0] == 0, ("verify_reduction", n, built[0])
        built[0] = 0
        complete(row, target)
        assert built[0] <= 2 * n + 10, (complete.__name__, n, built[0])
        monkeypatch.undo()


@pytest.mark.parametrize("ring", [Z, ProductRing([Z, ModularRing(12)])], ids=str)
def test_documents_build_no_element_per_entry(ring, monkeypatch):
    # the writers format payload rows and the readers collect them, so a
    # reduction certificate document and its matrix file (3n^2 + n^2
    # literals), read and written, build only the recorded determinants;
    # the readers built one element per literal when they wrapped them
    rnd = random.Random(4)

    def draw():
        v = rnd.randint(-9, 9)
        return (v, rnd.randrange(12)) if isinstance(ring, ProductRing) else v

    for n in (12, 24):
        A = RingMatrix.from_payloads(ring, [[draw() for _ in range(n)] for _ in range(n)])
        cert = diagonal_reduce(A)
        built = _count_elements(monkeypatch)
        doc = json.loads(dumps(reduction_certificate_to_doc(ring, cert)))
        text = matrix_to_text(A)
        assert reduction_certificate_from_doc(doc) == (ring, cert)
        assert matrix_from_text(text) == A
        assert built[0] <= 2, (n, built[0])
        monkeypatch.undo()


def test_the_long_completion_document_builds_no_element_per_entry(monkeypatch):
    # the 520-entry completion: 520^2 + 521 literals, written and read back
    cert = complete_row([Z.from_int(6 + 10 * i) for i in range(520)], Z.from_int(2))
    built = _count_elements(monkeypatch)
    doc = json.loads(dumps(completion_certificate_to_doc(Z, cert)))
    assert completion_certificate_from_doc(doc) == (Z, cert)
    assert built[0] <= 2, built[0]
