"""The document layer's fast paths against their references: literals read
by a ring kind's compiled pattern against the cursor parser, and
serialize.dumps against json.dumps(indent=2)."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from edr.errors import EdrError
from edr.parsing import _cursor_payload, _pattern_payload, parse_element, parse_row, ring_to_str
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    int_from_decimal,
    int_to_decimal,
)
from edr.serialize import dumps, matrix_from_doc, matrix_from_text

Z = IntegerRing()
GF5 = PrimeFieldPolynomialRing(5)
GF61 = PrimeFieldPolynomialRing(2**61 - 1)
RINGS = [
    Z,
    ModularRing(12),
    ModularRing(int_from_decimal("7" * 5000)),
    GF5,
    GF61,
    ProductRing([Z, ModularRing(12)]),
    ProductRing([GF5, ProductRing([Z, ModularRing(7)])]),
]
# digit runs past the interpreter's 4300-digit int <-> str limit
LONG = ["9" * 5000, "1" + "0" * 4400, int_to_decimal(3**10000)]
# whitespace the cursor skips (str.isspace), and characters near the grammar:
# digits of other scripts, a superscript two, a fullwidth one
SPACES = ["", " ", "\t", "\n", " ", " ", "　", "\x1c"]
NOISE = "0123456789+-[](),;{}/ \t  ٣²１_x"
# one edit away from a valid literal, where a pattern could be too lax
NEAR_MISSES = ["[1,]", "[,1]", "[1,,2]", "[1 2]", "[-]", "[+ 1]", "[1]]", "[[1]", "+-1", "1-", "- 1", "1_0",
               "(1,2,)", "(1 2)", "((1,2))", "(,1)", "0x1", "1e3", "\u0661", "", " "]


@st.composite
def decimals(draw):
    digits = draw(st.one_of(st.integers(0, 10**40).map(str), st.sampled_from(LONG)))
    return draw(st.sampled_from(["", "+", "-"])) + "0" * draw(st.integers(0, 2)) + digits


@st.composite
def valid_literals(draw, ring):
    pad = st.sampled_from(SPACES)
    if isinstance(ring, ProductRing):
        body = "(" + ",".join(draw(valid_literals(f)) for f in ring.factors) + ")"
    elif isinstance(ring, PrimeFieldPolynomialRing):
        coeffs = draw(st.lists(st.tuples(pad, decimals(), pad), max_size=4))
        body = "[" + ",".join(a + c + b for a, c, b in coeffs) + draw(pad) + "]"
    else:
        body = draw(decimals())
    return draw(pad) + body + draw(pad)


@st.composite
def literals(draw, ring):
    """A valid literal of `ring` or a near miss, then up to three
    character edits."""
    text = draw(st.one_of(valid_literals(ring), st.sampled_from(NEAR_MISSES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        ch = draw(st.sampled_from(NOISE))
        text = text[:i] + (ch if edit != "delete" else "") + text[i + (edit != "insert") :]
    return text


def _outcome(fn, *args):
    """fn's result, or the type, message and position of its EdrError."""
    try:
        return "ok", fn(*args)
    except EdrError as exc:
        return type(exc).__name__, exc.message, getattr(exc, "position", None)


def _cursor_rows(ring, rows):
    return tuple(tuple(_cursor_payload(ring, lit) for lit in row) for row in rows)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), ring=st.sampled_from(RINGS))
def test_pattern_parse_agrees_with_the_cursor(data, ring):
    text = data.draw(literals(ring))
    cursor = _outcome(_cursor_payload, ring, text)
    fast = _pattern_payload(ring, text)
    assert fast is None or cursor == ("ok", fast)
    assert _outcome(lambda: parse_element(ring, text).payload) == cursor
    assert _outcome(parse_row, ring, [text]) == _outcome(lambda: [_cursor_payload(ring, text)])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ring=st.sampled_from(RINGS), shape=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_row_readers_agree_with_the_cursor(data, ring, shape):
    m, n = shape
    rows = [[data.draw(literals(ring)) for _ in range(n)] for _ in range(m)]
    expected = _outcome(_cursor_rows, ring, rows)
    assert _outcome(lambda: matrix_from_doc(ring, {"rows": rows}).payloads) == expected
    # a text row is split on whitespace, so its literals carry none
    rows = [["".join(ch for ch in lit if not ch.isspace()) or "0" for lit in row] for row in rows]
    text = f"ring: {ring_to_str(ring)}\nshape: {m} {n}\n" + "".join(" ".join(row) + "\n" for row in rows)
    assert _outcome(lambda: matrix_from_text(text).payloads) == _outcome(_cursor_rows, ring, rows)


json_documents = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(),
        st.sampled_from(["é☃\U0001f600", "\x00\x1f\x7f\"\\/", "\ud800"]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.text(max_size=6), max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(doc=json_documents)
def test_dumps_writes_the_bytes_of_json_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"
