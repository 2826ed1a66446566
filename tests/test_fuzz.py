"""Fuzzing the readers: every input either parses (and verifies) or raises
an EdrError, never another exception."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from edr.complete import complete_row, verify_completion
from edr.errors import EdrError
from edr.matrices import RingMatrix
from edr.parsing import parse_element, parse_ring
from edr.reduce import diagonal_reduce, verify_reduction
from edr.serialize import (
    completion_certificate_from_doc,
    completion_certificate_to_doc,
    matrix_from_text,
    reduction_certificate_from_doc,
    reduction_certificate_to_doc,
)

RING_TEXTS = ["Z", "Z/12", "Z/6", "GF(5)[x]", "GF(2)[x]", "Zser3", "prod(Z,Z/6)"]
RINGS = [parse_ring(t) for t in RING_TEXTS]
# descriptors every reader refuses: malformed ones, a product with a factor
# without an op table, GF(psi_13)[x] (refused although psi_13 passes every
# base of is_prime), and ones past the interpreter's 4300-digit int <-> str limit
REFUSED_RING_TEXTS = [
    "Q", "Z/1", "prod(Z)", "GF(4)[x]", "prod(GF(2)[x],Zser2)",
    "GF(3317044064679887385961981)[x]", "Z/" + "7" * 5000, "Zser" + "7" * 5000,
]

# literal characters of every grammar, a non-ASCII digit, and whitespace
LITERAL_CHARS = "0123456789-+[](){};,/ \t²٣Zx"
literal_texts = st.one_of(
    st.text(alphabet=LITERAL_CHARS, max_size=24),
    st.text(max_size=12),
    st.sampled_from(["9" * 5000, "-" + "1" * 4400, "[" + "4" * 4400 + "]", "{1;1/0}", "(1,[1])"]),
)
non_text = st.one_of(st.integers(), st.none(), st.floats(), st.lists(st.integers(), max_size=3))


def _edr_or_success(fn, *args):
    try:
        return fn(*args)
    except EdrError:
        return None


@settings(max_examples=300, deadline=None)
@given(ring=st.sampled_from(RINGS), text=st.one_of(literal_texts, non_text))
def test_parse_element_fuzz(ring, text):
    _edr_or_success(parse_element, ring, text)


@st.composite
def matrix_texts(draw):
    ring_line = draw(st.sampled_from(["ring: ", "ring:", "rng: ", ""])) + draw(
        st.sampled_from(RING_TEXTS + REFUSED_RING_TEXTS)
    )
    shape_line = draw(st.sampled_from(["shape: ", "shape:", "shape "])) + draw(
        st.text(alphabet="0123456789 -²x", max_size=6)
    )
    cell = st.text(alphabet=LITERAL_CHARS.replace(" ", "").replace("\t", ""), min_size=1, max_size=6)
    rows = draw(st.lists(st.lists(cell, max_size=4), max_size=4))
    return "\n".join([ring_line, shape_line] + [" ".join(r) for r in rows])


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(matrix_texts(), st.text(max_size=40)))
def test_matrix_from_text_fuzz(text):
    _edr_or_success(matrix_from_text, text)


def _valid_documents():
    docs = []
    for ring, rows in (
        (RINGS[0], [[2, 4], [6, 8]]),
        (RINGS[1], [[3, 4, 6], [2, 9, 1]]),
        (RINGS[3], [[[1, 1], [0, 2]], [[3], [1, 0, 1]]]),
        (RINGS[6], [[(2, 3), (4, 1)], [(6, 2), (1, 5)]]),
    ):
        A = RingMatrix.from_payloads(ring, rows)
        docs.append((A, reduction_certificate_to_doc(ring, diagonal_reduce(A))))
    for ring, row, d in ((RINGS[0], [6, 10, 15], 1), (RINGS[2], [3, 5], 1)):
        cert = complete_row([ring.from_int(v) for v in row], ring.from_int(d))
        docs.append((None, completion_certificate_to_doc(ring, cert)))
    return docs


DOCUMENTS = _valid_documents()

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.sampled_from(RING_TEXTS),
        st.text(alphabet="0123456789-[](){};,/Z ", max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["rows", "shape", "ring", "kind", "A", "P"]), children, max_size=3),
    ),
    max_leaves=10,
)


def _slots(node, out):
    """Every (container, key) pair inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def certificate_documents(draw):
    matrix, doc = draw(st.sampled_from(DOCUMENTS))
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = slots[draw(st.integers(0, len(slots) - 1))]
        if draw(st.booleans()) and isinstance(node, dict):
            del node[key]
        else:
            node[key] = draw(json_values)
    if draw(st.integers(0, 9)) == 0:
        doc = draw(json_values)  # not a certificate at all
    return matrix, doc


def _read_and_verify(matrix, doc):
    if isinstance(doc, dict) and "first_row" in doc:
        _, cert = completion_certificate_from_doc(doc)
        return verify_completion(cert)
    ring, cert = reduction_certificate_from_doc(doc)
    if matrix is None or ring != matrix.ring:
        return None
    return verify_reduction(matrix, cert)


@settings(max_examples=300, deadline=None)
@given(case=certificate_documents())
def test_certificate_documents_fuzz(case):
    _edr_or_success(_read_and_verify, *case)
