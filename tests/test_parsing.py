from fractions import Fraction

import pytest

from edr.errors import ParseError, ScaleExceeded, UnsupportedRing
from edr.matrices import RingMatrix
from edr.parsing import (
    element_to_str,
    parse_element,
    parse_ring,
    ring_to_str,
    split_top_level,
)
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    TruncatedSeriesRing,
    _PRODUCT_DEPTH_BOUND,
)
from edr.serialize import matrix_from_text, matrix_to_text


@pytest.mark.parametrize(
    "text",
    ["Z", "Z/12", "GF(5)[x]", "Zser8", "prod(Z,Z/6)", "prod(Z/4,prod(Z,GF(2)[x]))"],
)
def test_ring_round_trip(text):
    ring = parse_ring(text)
    assert ring_to_str(ring) == text
    assert parse_ring(ring_to_str(ring)) == ring


@pytest.mark.parametrize(
    "bad",
    [
        "Z/1",
        "Z/",
        "GF(4)[x]",
        "GF(5)",
        "Zser0",
        "prod(Z)",
        "Q",
        "Z/12 trailing",
        "",
        "GF(318665857834031151167461)[x]",  # psi_12, a strong pseudoprime to 12 bases
        "Z/\u00b2",  # a superscript two is no decimal digit
    ],
)
def test_ring_rejects(bad):
    with pytest.raises(ParseError) as exc:
        parse_ring(bad)
    assert exc.value.position >= 0


@pytest.mark.parametrize("text", ["prod(Z,Zser3)", "prod(GF(2)[x],Zser2)", "prod(Z/4,prod(Z,Zser1))"])
def test_products_with_a_series_factor_are_unsupported(text):
    with pytest.raises(UnsupportedRing):
        parse_ring(text)


def _nested_product(depth):
    text = "Z/6"
    for _ in range(depth):
        text = f"prod({text},Z)"
    return text


def test_product_nesting_is_bounded():
    ring = parse_ring(_nested_product(_PRODUCT_DEPTH_BOUND))
    assert ring.depth == _PRODUCT_DEPTH_BOUND
    assert ring_to_str(ring) == _nested_product(_PRODUCT_DEPTH_BOUND)
    literal = element_to_str(ring.from_int(5))
    assert parse_element(ring, literal) == ring.from_int(5)
    with pytest.raises(ScaleExceeded):
        parse_ring(_nested_product(_PRODUCT_DEPTH_BOUND + 1))
    with pytest.raises(ScaleExceeded):
        ProductRing([ring, IntegerRing()])
    # the parser refuses before it recurses, however deep the nest
    with pytest.raises(ScaleExceeded):
        parse_ring(_nested_product(5000))


def test_element_round_trips():
    cases = [
        (IntegerRing(), ["0", "-17", "123456789123456789"]),
        (ModularRing(12), ["0", "11"]),
        (PrimeFieldPolynomialRing(5), ["[]", "[1,2,3]", "[0,0,4]"]),
        (TruncatedSeriesRing(4), ["{3;1/2,0,-5/7}", "{-2;0,0,0}"]),
        (ProductRing([IntegerRing(), ModularRing(6)]), ["(-4,5)", "(0,0)"]),
    ]
    for ring, literals in cases:
        for lit in literals:
            el = parse_element(ring, lit)
            rendered = element_to_str(el)
            assert parse_element(ring, rendered) == el


def test_element_canonicalizes():
    ring = PrimeFieldPolynomialRing(5)
    assert parse_element(ring, "[6,1]") == ring.element([1, 1])
    assert parse_element(ring, "[0]") == ring.zero
    assert element_to_str(ring.zero) == "[]"
    mod = ModularRing(12)
    assert parse_element(mod, "-1") == mod.from_int(11)


def test_series_literal_shapes():
    S1 = TruncatedSeriesRing(1)
    assert element_to_str(S1.from_int(2)) == "{2;}"
    assert parse_element(S1, "{2;}") == S1.from_int(2)
    assert parse_element(S1, "{2}") == S1.from_int(2)
    S4 = TruncatedSeriesRing(4)
    el = parse_element(S4, "{2; 1/2, 3}")  # short literal pads with zeros
    assert el == S4.element([2, Fraction(1, 2), 3, 0])
    with pytest.raises(ParseError):
        parse_element(S4, "{2;1,2,3,4}")  # too many coefficients
    with pytest.raises(ParseError):
        parse_element(S4, "{1/2;0}")  # constant term must be an integer


def test_element_rejects_with_position():
    with pytest.raises(ParseError) as exc:
        parse_element(IntegerRing(), "12x")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_element(PrimeFieldPolynomialRing(5), "[1,")
    with pytest.raises(ParseError):
        parse_element(ProductRing([IntegerRing(), IntegerRing()]), "(1)")


def test_matrix_text_round_trip():
    ring = PrimeFieldPolynomialRing(5)
    M = RingMatrix(ring, [[ring.element([1, 2]), ring.zero], [ring.one, ring.element([0, 0, 3])]])
    text = matrix_to_text(M)
    assert matrix_from_text(text) == M
    assert matrix_to_text(matrix_from_text(text)) == text


def test_bool_entries_round_trip_as_plain_ints():
    Z = IntegerRing()
    M = RingMatrix.from_payloads(Z, [[True, 2], [3, False]])
    assert all(type(e.payload) is int for row in M.entries for e in row)
    text = matrix_to_text(M)
    assert text == "ring: Z\nshape: 2 2\n1 2\n3 0\n"
    assert matrix_from_text(text) == M
    series = TruncatedSeriesRing(3).from_int(True)
    assert type(series.payload[0]) is int and element_to_str(series) == "{1;0,0}"


def test_matrix_text_format_is_exact():
    text = "ring: Z\nshape: 2 2\n2 4\n6 8\n"
    M = matrix_from_text(text)
    assert M.rows == 2 and M.cols == 2
    assert M.entries[1][0].payload == 6
    assert matrix_to_text(M) == text


@pytest.mark.parametrize(
    "bad",
    [
        "shape: 2 2\n1 2\n3 4\n",
        "ring: Z\n1 2\n",
        "ring: Z\nshape: 2 2\n1 2\n",
        "ring: Z\nshape: 2 2\n1 2 3\n4 5 6\n",
        "ring: Z\nshape: 0 2\n",
        "ring: Z\nshape: 2 2\n1 2\n3 4\n5 6\n",
    ],
)
def test_matrix_text_rejects(bad):
    with pytest.raises(ParseError):
        matrix_from_text(bad)


def test_split_top_level_respects_nesting():
    assert split_top_level("3,5") == ["3", "5"]
    assert split_top_level("[1,2],[0,1]") == ["[1,2]", "[0,1]"]
    assert split_top_level("(1,2),(3,4)") == ["(1,2)", "(3,4)"]
    assert split_top_level("{1;2,3},{0;}") == ["{1;2,3}", "{0;}"]
    with pytest.raises(ParseError):
        split_top_level("[1,2")


def test_element_literals_beyond_the_interpreter_digit_limit():
    Z = IntegerRing()
    text = "-" + "9" * 10000
    el = parse_element(Z, text)
    assert el.payload == -(10**10000 - 1)
    assert element_to_str(el) == text
    assert parse_element(ModularRing(7), "1" * 5000).payload == sum(pow(10, i, 7) for i in range(5000)) % 7


@pytest.mark.parametrize("bad", [5, None, ["1"], b"1"])
def test_non_text_literals_are_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_element(IntegerRing(), bad)
    with pytest.raises(ParseError):
        parse_ring(bad)
