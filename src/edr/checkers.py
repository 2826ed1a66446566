"""Exhaustive predicate checks on finite rings plus a bounded refuter.

Each check evaluates its quantified clause over every element (or tuple) of
the ring and reports a replayable witness when the clause fails. Residue
rings get a fast path through integer gcd tables; the generic path walks
product rings element by element. Ideal membership aR + bR = R is decided
through gcd(a, b, n) on residues; `pair_unimodular_by_scan` is the plain
set-scan definition kept around so tests can pin the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionFailed, ScaleExceeded, UnsupportedRing, ZeroElement
from .rings import (
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    RingElement,
    gcd_bezout,
    is_unit,
    jacobson_member,
    radical,
)

__all__ = [
    "PREDICATES",
    "PredicateReport",
    "check_finite_predicate",
    "check_clean_quotient",
    "bounded_refute_sr1",
    "predicate_clause_holds",
    "pair_unimodular",
    "pair_unimodular_by_scan",
]

PREDICATES = ("StableRange1", "Clean", "PmRing", "JStableCondition")

_SCAN_BOUND = 10**4


@dataclass(frozen=True)
class PredicateReport:
    predicate: str
    holds: bool
    witness: tuple[RingElement, ...] | None
    elements_scanned: int
    note: str = ""


def pair_unimodular(a: RingElement, b: RingElement) -> bool:
    """Whether aR + bR = R."""
    ring = a.ring
    if isinstance(ring, ModularRing):
        return math.gcd(a.payload, b.payload, ring.n) == 1
    if isinstance(ring, IntegerRing):
        return math.gcd(a.payload, b.payload) == 1
    if isinstance(ring, ProductRing):
        return all(
            pair_unimodular(x, y) for x, y in zip(a.payload, b.payload)
        )
    return is_unit(gcd_bezout(a, b).g)


def pair_unimodular_by_scan(a: RingElement, b: RingElement) -> bool:
    """The definition itself: scan {a*x + b*y} for 1 (finite rings only)."""
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


def _require_finite(ring: Ring) -> int:
    card = ring.cardinality()
    if card is None:
        raise UnsupportedRing(f"{ring} is not finite")
    if card > _SCAN_BOUND:
        raise ScaleExceeded(f"{card} elements exceed the scan bound {_SCAN_BOUND}")
    return card


# ---------------------------------------------------------------------------
# clause evaluation (shared by the checker and witness replay)


def _sr1_clause(ring, a, b):
    # aR + bR = R  =>  some a + b*y is a unit
    if not pair_unimodular(a, b):
        return True
    return any(is_unit(a + b * y) for y in ring.iter_elements())


def _clean_clause(ring, a):
    for e in ring.iter_elements():
        if e * e == e and is_unit(a - e):
            return True
    return False


def _pm_clause(ring, a):
    b = ring.one - a
    one, zero = ring.one, ring.zero
    for x in ring.iter_elements():
        lhs = one - a * x
        if lhs == zero:
            return True
        for y in ring.iter_elements():
            if lhs * (one - b * y) == zero:
                return True
    return False


def _jstable_clause(ring, a, b, c):
    if jacobson_member(a) or not pair_unimodular(b, c):
        return True
    return any(pair_unimodular(a, b + c * y) for y in ring.iter_elements())


def predicate_clause_holds(predicate: str, witness) -> bool:
    """Re-evaluate the inner clause of `predicate` on a witness tuple; a
    genuine counterexample returns False."""
    ring = witness[0].ring
    if predicate == "StableRange1":
        return _sr1_clause(ring, *witness)
    if predicate == "Clean":
        return _clean_clause(ring, *witness)
    if predicate == "PmRing":
        return _pm_clause(ring, *witness)
    if predicate == "JStableCondition":
        return _jstable_clause(ring, *witness)
    raise ValueError(f"unknown predicate {predicate!r}")


# ---------------------------------------------------------------------------
# fast modular scans


def _modular_scan(ring: ModularRing, predicate: str):
    n = ring.n
    gcd_n = [math.gcd(v, n) for v in range(n)]
    units = [v for v in range(n) if gcd_n[v] == 1]
    unit_mask = [g == 1 for g in gcd_n]

    if predicate == "StableRange1":
        scanned = 0
        for a in range(n):
            ga = gcd_n[a]
            for b in range(n):
                if math.gcd(ga, gcd_n[b]) != 1:
                    continue
                scanned += 1
                if not any(unit_mask[(a + b * y) % n] for y in range(n)):
                    return False, (a, b), scanned
        return True, None, scanned

    if predicate == "Clean":
        idempotents = [e for e in range(n) if e * e % n == e]
        for a in range(n):
            if not any(unit_mask[(a - e) % n] for e in idempotents):
                return False, (a,), n
        return True, None, n

    if predicate == "PmRing":
        for a in range(n):
            b = (1 - a) % n
            found = False
            for x in range(n):
                lhs = (1 - a * x) % n
                if lhs == 0:
                    found = True
                    break
                if any((lhs * (1 - b * y)) % n == 0 for y in range(n)):
                    found = True
                    break
            if not found:
                return False, (a,), n
        return True, None, n

    if predicate == "JStableCondition":
        rad = radical(n)
        scanned = 0
        for a in range(n):
            if a % rad == 0:
                continue  # radical members are exempt
            ga = gcd_n[a]
            for b in range(n):
                gb = gcd_n[b]
                for c in range(n):
                    if math.gcd(gb, gcd_n[c]) != 1:
                        continue
                    scanned += 1
                    if not any(
                        math.gcd(ga, gcd_n[(b + c * y) % n]) == 1 for y in range(n)
                    ):
                        return False, (a, b, c), scanned
        return True, None, scanned

    raise ValueError(f"unknown predicate {predicate!r}")


def _generic_scan(ring: Ring, predicate: str):
    elements = list(ring.iter_elements())
    if predicate == "StableRange1":
        scanned = 0
        for a in elements:
            for b in elements:
                if not pair_unimodular(a, b):
                    continue
                scanned += 1
                if not _sr1_clause(ring, a, b):
                    return False, (a, b), scanned
        return True, None, scanned
    if predicate == "Clean":
        for a in elements:
            if not _clean_clause(ring, a):
                return False, (a,), len(elements)
        return True, None, len(elements)
    if predicate == "PmRing":
        for a in elements:
            if not _pm_clause(ring, a):
                return False, (a,), len(elements)
        return True, None, len(elements)
    if predicate == "JStableCondition":
        scanned = 0
        for a in elements:
            if jacobson_member(a):
                continue
            for b in elements:
                for c in elements:
                    if not pair_unimodular(b, c):
                        continue
                    scanned += 1
                    if not _jstable_clause(ring, a, b, c):
                        return False, (a, b, c), scanned
        return True, None, scanned
    raise ValueError(f"unknown predicate {predicate!r}")


def check_finite_predicate(ring: Ring, predicate: str) -> PredicateReport:
    """Exhaustively evaluate one of StableRange1, Clean, PmRing,
    JStableCondition over a finite ring (at most 10^4 elements)."""
    if predicate not in PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    _require_finite(ring)
    if isinstance(ring, ModularRing):
        holds, witness, scanned = _modular_scan(ring, predicate)
        wit = tuple(ring.from_int(v) for v in witness) if witness else None
    else:
        holds, witness, scanned = _generic_scan(ring, predicate)
        wit = witness
    return PredicateReport(predicate, holds, wit, scanned)


def check_clean_quotient(a: RingElement) -> PredicateReport:
    """Clean-ness of Z/|a| for a nonzero integer a (adequate elements have
    clean quotients; over Z that is every nonzero element)."""
    if not isinstance(a.ring, IntegerRing):
        raise UnsupportedRing("check_clean_quotient expects an integer")
    v = abs(a.payload)
    if v == 0:
        raise ZeroElement("the quotient by zero is not finite")
    if v > _SCAN_BOUND:
        raise ScaleExceeded(f"|a| = {v} exceeds {_SCAN_BOUND}")
    if v == 1:
        return PredicateReport("Clean", True, None, 1, note="zero ring, vacuous")
    return check_finite_predicate(ModularRing(v), "Clean")


def bounded_refute_sr1(ring: ProductRing, triple, bound: int) -> PredicateReport:
    """Search |y_i| <= bound for a lift aR + (b + c*y)R = R over a product
    of copies of Z. A failed search is evidence against the lift condition,
    not a proof, and the report says so.

    The components of y act independently, so the scan runs per component;
    the counted work is the same as walking the full cube."""
    if not isinstance(ring, ProductRing) or not all(
        isinstance(f, IntegerRing) for f in ring.factors
    ):
        raise UnsupportedRing("refuter expects a product of copies of Z")
    a, b, c = triple
    if a.ring != ring or b.ring != ring or c.ring != ring:
        raise PreconditionFailed("triple must live in the given product ring")
    if not all(
        math.gcd(x.payload, y.payload, z.payload) == 1
        for x, y, z in zip(a.payload, b.payload, c.payload)
    ):
        raise PreconditionFailed("triple is not unimodular")
    if jacobson_member(a):
        raise PreconditionFailed("a lies in the radical")

    scanned = 0
    found: list[int] = []
    for ai, bi, ci in zip(a.payload, b.payload, c.payload):
        hit = None
        for y in range(-bound, bound + 1):
            scanned += 1
            if math.gcd(ai.payload, bi.payload + ci.payload * y) == 1:
                hit = y
                break
        if hit is None:
            return PredicateReport(
                "JStableCondition",
                False,
                (a, b, c),
                scanned,
                note=f"bounded evidence, not proof: no |y| <= {bound} lifts this triple",
            )
        found.append(hit)
    lift = "(" + ",".join(str(v) for v in found) + ")"
    return PredicateReport(
        "JStableCondition", True, None, scanned, note=f"lift found: y = {lift}"
    )
