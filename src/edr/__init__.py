"""Exact-arithmetic toolkit for diagonal matrix reduction over computable
commutative Bezout rings, with machine-checkable certificates throughout:
Smith-style reduction, adequate factorizations, stable-range lifts,
determinant-prescribed row completion, and exhaustive finite-ring checks."""

from .adequate import (
    AdequateSplit,
    adequate_split,
    pi_adequate_split_zn,
    series_adequate_split,
    verify_adequate,
)
from .checkers import (
    PREDICATES,
    PredicateReport,
    bounded_refute_sr1,
    check_clean_quotient,
    check_finite_predicate,
    predicate_clause_holds,
)
from .complete import (
    CompletionCertificate,
    complete_row,
    idempotent_complete,
    sr1_quotient_lift,
    sr2_reduce,
    verify_completion,
)
from .errors import EdrError
from .matrices import RingMatrix
from .parsing import element_to_str, parse_element, parse_ring, ring_to_str
from .reduce import (
    ReductionCertificate,
    diagonal_reduce,
    hermite_row,
    kaplansky_2x2,
    verify_reduction,
)
from .report import CheckReport
from .rings import (
    BezoutData,
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    Ring,
    RingElement,
    TruncatedSeriesRing,
    bezout_combination,
    canonical_associate,
    divide_exact,
    gcd_bezout,
    is_unit,
    jacobson_member,
    unit_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "AdequateSplit",
    "BezoutData",
    "CheckReport",
    "CompletionCertificate",
    "EdrError",
    "IntegerRing",
    "ModularRing",
    "PREDICATES",
    "PredicateReport",
    "PrimeFieldPolynomialRing",
    "ProductRing",
    "ReductionCertificate",
    "Ring",
    "RingElement",
    "RingMatrix",
    "TruncatedSeriesRing",
    "adequate_split",
    "bezout_combination",
    "bounded_refute_sr1",
    "canonical_associate",
    "check_clean_quotient",
    "check_finite_predicate",
    "complete_row",
    "diagonal_reduce",
    "divide_exact",
    "element_to_str",
    "gcd_bezout",
    "hermite_row",
    "idempotent_complete",
    "is_unit",
    "jacobson_member",
    "kaplansky_2x2",
    "parse_element",
    "parse_ring",
    "pi_adequate_split_zn",
    "predicate_clause_holds",
    "ring_to_str",
    "series_adequate_split",
    "sr1_quotient_lift",
    "sr2_reduce",
    "unit_inverse",
    "verify_adequate",
    "verify_completion",
    "verify_reduction",
]
