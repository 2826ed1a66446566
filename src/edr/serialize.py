"""File formats: the matrix text format and JSON certificate documents.

Matrix files are bit-exact:

    ring: <descriptor>
    shape: <m> <n>
    <m rows of n whitespace-separated element literals>

Certificates and reports serialize to JSON with a fixed key order, so equal
inputs always produce equal bytes. Matrices inside JSON documents keep the
row-major literal form.
"""

from __future__ import annotations

import json

from .complete import CompletionCertificate
from .checkers import PredicateReport
from .errors import ParseError
from .matrices import RingMatrix
from .parsing import element_to_str, parse_element, parse_ring, ring_to_str
from .reduce import ReductionCertificate
from .report import CheckReport
from .rings import Ring

__all__ = [
    "matrix_to_text",
    "matrix_from_text",
    "matrix_to_doc",
    "matrix_from_doc",
    "reduction_certificate_to_doc",
    "reduction_certificate_from_doc",
    "completion_certificate_to_doc",
    "completion_certificate_from_doc",
    "predicate_report_to_doc",
    "check_report_to_doc",
    "dumps",
]


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# matrix text files


def matrix_to_text(M: RingMatrix) -> str:
    lines = [f"ring: {ring_to_str(M.ring)}", f"shape: {M.rows} {M.cols}"]
    for row in M.entries:
        lines.append(" ".join(element_to_str(e) for e in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> RingMatrix:
    lines = text.splitlines()
    pos = 0
    if not lines or not lines[0].startswith("ring:"):
        raise ParseError("first line must be 'ring: <descriptor>'", 0)
    ring = parse_ring(lines[0][len("ring:") :].strip())
    pos += len(lines[0]) + 1
    if len(lines) < 2 or not lines[1].startswith("shape:"):
        raise ParseError("second line must be 'shape: <m> <n>'", pos)
    parts = lines[1][len("shape:") :].split()
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
        raise ParseError("shape needs two positive integers", pos)
    m, n = int(parts[0]), int(parts[1])
    if m < 1 or n < 1:
        raise ParseError("shape needs two positive integers", pos)
    pos += len(lines[1]) + 1
    rows = []
    taken = 0
    for ln in lines[2:]:
        if not ln.strip():
            pos += len(ln) + 1
            continue
        if taken == m:
            raise ParseError("more rows than the declared shape", pos)
        toks = ln.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries, found {len(toks)}", pos)
        rows.append([parse_element(ring, tok) for tok in toks])
        taken += 1
        pos += len(ln) + 1
    if taken != m:
        raise ParseError(f"expected {m} rows, found {taken}", pos)
    return RingMatrix(ring, rows)


# ---------------------------------------------------------------------------
# JSON documents


def matrix_to_doc(M: RingMatrix) -> dict:
    return {
        "shape": [M.rows, M.cols],
        "rows": [[element_to_str(e) for e in row] for row in M.entries],
    }


def matrix_from_doc(ring: Ring, doc) -> RingMatrix:
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ParseError("matrix document needs a 'rows' field")
    rows = doc["rows"]
    if not (isinstance(rows, list) and rows and all(isinstance(row, list) and row for row in rows)):
        raise ParseError("matrix 'rows' must be a nonempty list of nonempty lists")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ParseError("matrix 'rows' are ragged")
    M = RingMatrix(ring, [[parse_element(ring, lit) for lit in row] for row in rows])
    shape = doc.get("shape")
    if shape is not None and (not isinstance(shape, (list, tuple)) or list(shape) != [M.rows, M.cols]):
        raise ParseError("matrix document shape disagrees with its rows")
    return M


def _require_fields(doc, keys):
    if not isinstance(doc, dict):
        raise ParseError("a certificate document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"certificate document lacks the {key!r} field")


def reduction_certificate_to_doc(ring: Ring, cert: ReductionCertificate) -> dict:
    return {
        "kind": "reduction-certificate",
        "ring": ring_to_str(ring),
        "P": matrix_to_doc(cert.P),
        "D": matrix_to_doc(cert.D),
        "Q": matrix_to_doc(cert.Q),
        "detP": element_to_str(cert.detP_unit),
        "detQ": element_to_str(cert.detQ_unit),
    }


def reduction_certificate_from_doc(doc) -> tuple[Ring, ReductionCertificate]:
    _require_fields(doc, ("ring", "P", "D", "Q", "detP", "detQ"))
    ring = parse_ring(doc["ring"])
    return ring, ReductionCertificate(
        P=matrix_from_doc(ring, doc["P"]),
        D=matrix_from_doc(ring, doc["D"]),
        Q=matrix_from_doc(ring, doc["Q"]),
        detP_unit=parse_element(ring, doc["detP"]),
        detQ_unit=parse_element(ring, doc["detQ"]),
    )


def completion_certificate_to_doc(ring: Ring, cert: CompletionCertificate) -> dict:
    return {
        "kind": "completion-certificate",
        "ring": ring_to_str(ring),
        "A": matrix_to_doc(cert.A),
        "first_row": [element_to_str(e) for e in cert.first_row],
        "det": element_to_str(cert.det_target),
    }


def completion_certificate_from_doc(doc) -> tuple[Ring, CompletionCertificate]:
    """The document's "det" is both the target and the claimed value; only
    verify_completion computes the determinant of A."""
    _require_fields(doc, ("ring", "A", "first_row", "det"))
    ring = parse_ring(doc["ring"])
    A = matrix_from_doc(ring, doc["A"])
    if not isinstance(doc["first_row"], list):
        raise ParseError("'first_row' must be a list of element literals")
    first_row = tuple(parse_element(ring, lit) for lit in doc["first_row"])
    det = parse_element(ring, doc["det"])
    return ring, CompletionCertificate(A, first_row, det, det)


def predicate_report_to_doc(ring: Ring, report: PredicateReport) -> dict:
    return {
        "kind": "predicate-report",
        "ring": ring_to_str(ring),
        "predicate": report.predicate,
        "holds": report.holds,
        "witness": (
            [element_to_str(e) for e in report.witness] if report.witness else None
        ),
        "elements_scanned": report.elements_scanned,
        "note": report.note,
    }


def check_report_to_doc(report: CheckReport) -> dict:
    return {
        "kind": "verification-report",
        "ok": report.ok,
        "failures": list(report.failures),
    }
