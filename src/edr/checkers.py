"""Exhaustive predicate checks on finite rings plus an exact lift decision.

Each check evaluates its quantified clause over every element (or tuple) of
the ring and reports a replayable witness when the clause fails. One engine
serves every finite ring edr accepts, a product of Z/n_i (Z/n is one factor;
nested products flatten), numbering its elements 0..N-1 in `iter_elements()`
order. The ideal of a is fixed by its class, the tuple gcd(a_i, n_i):
aR + bR = R iff two classes are coprime in each factor, and a is in J iff
each gcd(a_i, n_i) is nilpotent, so the filters read classes only. An inner
exists-z splits by factor, as some z in prod R_i has phi_i(z_i) for all i iff
each R_i has some z_i with phi_i(z_i), and in Z/n it is one gcd: for x and g
dividing n, some r + g*z is coprime to x iff gcd(x, g, r) = 1 (a prime of x
dividing g must not divide r, one not dividing g is avoided by some z, and
the CRT joins the choices, as every prime of x divides n). Since
p + qR = p + gcd(q, n)R and gcd(x, g, r) = gcd(x, g, gcd(r, n)), the
StableRange1 and JStableCondition inner clauses see every variable through
its class only: each scan decides them once per triple of classes (target,
last prefix element, last variable), and counts a prefix's tuples by class
sizes. Only a failure is walked in order, so
`elements_scanned` and the first witness are those of the plain nested loop.
A clause quantifying q variables (Clean 2, StableRange1 and PmRing 3,
JStableCondition 4) is refused with ScaleExceeded when N^q > 10^8, the plain
loop's work, which bounds the engine's.

The element clauses `_*_clause` replay a witness apart from the engine.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import getitem

from .errors import PreconditionFailed, ScaleExceeded, UnsupportedRing, ZeroElement
from .rings import (
    IntegerRing,
    ModularRing,
    ProductRing,
    Ring,
    RingElement,
    gcd_bezout,
    int_to_decimal,
    is_unit,
    jacobson_member,
)
from .complete import sr1_quotient_lift

__all__ = [
    "PREDICATES",
    "PredicateReport",
    "check_finite_predicate",
    "check_clean_quotient",
    "bounded_refute_sr1",
    "predicate_clause_holds",
    "pair_unimodular",
]

@dataclass(frozen=True)
class PredicateReport:
    predicate: str
    holds: bool
    witness: tuple[RingElement, ...] | None
    elements_scanned: int
    note: str = ""


def pair_unimodular(a: RingElement, b: RingElement) -> bool:
    """Whether aR + bR = R: the ideal is (gcd(a, b)), so the gcd is a unit."""
    return is_unit(gcd_bezout(a, b).g)


# ---------------------------------------------------------------------------
# clause evaluation (the independent replay of a witness)


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
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    return _PREDICATES[predicate][2](witness[0].ring, *witness)


# ---------------------------------------------------------------------------
# the scan engine over an indexed finite ring


def _moduli(ring) -> list[int]:
    if isinstance(ring, ProductRing):
        return [n for f in ring.factors for n in _moduli(f)]
    return [ring.n]


def _scan_elements(moduli, table):
    # Clean, PmRing: a passes iff each residue passes in its own factor,
    # table(n) holding the verdict of every residue mod n; all a are scanned
    tables = [table(n) for n in moduli]
    size = math.prod(moduli)
    if all(map(all, tables)):
        return True, None, size
    residues = itertools.product(*map(range, moduli))
    a = next(a for a, r in enumerate(residues) if not all(map(getitem, tables, r)))
    return False, (a,), size


def _reaches(xs, rs, gs):
    # in each factor, some r + g*z is coprime to x, where x and g divide n
    return all(math.gcd(x, g, r) == 1 for x, r, g in zip(xs, rs, gs))


class _IdealClasses:
    """Each element's class id, each class's gcd tuple, which classes are
    comaximal and how many elements are comaximal to each."""

    def __init__(self, moduli):
        self.moduli = moduli
        residues = itertools.product(*map(range, moduli))
        ids = {}
        self.of = [ids.setdefault(tuple(map(math.gcd, r, moduli)), len(ids)) for r in residues]
        self.gcds = list(ids)
        self.comax = [[all(math.gcd(x, y) == 1 for x, y in zip(gx, gy)) for gy in ids] for gx in ids]
        sizes = Counter(self.of)
        self.count = [sum(sizes[Y] for Y, ok in enumerate(row) if ok) for row in self.comax]

    def scan(self, prefixes, target):
        """Scan t + (y,) for each prefix t in order and each y comaximal to
        p = t[-1] in order, on the clause: some p + y*z is comaximal to the
        class id target(t). The classes of y that fail depend on the pair
        (target(t), class of p) alone and are found once per pair.
        (holds, first failing tuple or None, tuples scanned)"""
        scanned, gcds, of, fails = 0, self.gcds, self.of, {}
        for t in prefixes:
            X, P = target(t), of[t[-1]]
            row, bad = self.comax[P], fails.get((X, P))
            if bad is None:
                bad = fails[X, P] = {
                    C for C, ok in enumerate(row) if ok and not _reaches(gcds[X], gcds[P], gcds[C])
                }
            if bad:  # walk the tuples of this prefix up to the first failure
                y = next(y for y, Y in enumerate(of) if Y in bad)
                return False, t + (y,), scanned + sum(row[Y] for Y in of[: y + 1])
            scanned += self.count[P]
        return True, None, scanned

    def sr1(self):
        # (a, b) comaximal => some a + b*y is a unit: comaximal to 0, whose
        # class (gcd n in each factor) has id 0, as 0 comes first
        return self.scan([(a,) for a in range(len(self.of))], lambda t: 0)

    def jstable(self):
        # a not in J and (b, c) comaximal => some b + c*y is comaximal to a
        gcds, of, elements = self.gcds, self.of, range(len(self.of))
        in_j = [all(pow(g, n.bit_length(), n) == 0 for g, n in zip(gx, self.moduli)) for gx in gcds]
        prefixes = ((a, b) for a in elements if not in_j[of[a]] for b in elements)
        return self.scan(prefixes, lambda t: of[t[0]])


def _clean_table(n):
    # some idempotent e with a - e a unit
    idempotents = [e for e in range(n) if e * e % n == e]
    return [any(math.gcd(a - e, n) == 1 for e in idempotents) for a in range(n)]


def _pm_holds(a, n):
    # some x, y with (1 - a*x)(1 - (1 - a)*y) = 0; for a given x a y exists
    # iff 1 - a is a unit modulo n / gcd(1 - a*x, n), which is 1 when
    # 1 - a*x = 0
    b = 1 - a
    return any(math.gcd(b, n // math.gcd(1 - a * x, n)) == 1 for x in range(n))


# each predicate, in the order the CLI lists them: the number of variables
# its clause quantifies, its scan and its clause's replay
_PREDICATES = {
    "StableRange1": (3, lambda moduli: _IdealClasses(moduli).sr1(), _sr1_clause),
    "Clean": (2, partial(_scan_elements, table=_clean_table), _clean_clause),
    "PmRing": (3, partial(_scan_elements, table=lambda n: [_pm_holds(a, n) for a in range(n)]), _pm_clause),
    "JStableCondition": (4, lambda moduli: _IdealClasses(moduli).jstable(), _jstable_clause),
}
PREDICATES = tuple(_PREDICATES)


def check_finite_predicate(ring: Ring, predicate: str) -> PredicateReport:
    """Exhaustively evaluate one of StableRange1, Clean, PmRing,
    JStableCondition over a finite ring of N elements. A clause that
    quantifies q variables is refused with ScaleExceeded when N^q > 10^8."""
    if predicate not in _PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    card = ring.cardinality()
    if card is None:
        raise UnsupportedRing(f"{ring} is not finite")
    q, scan, _ = _PREDICATES[predicate]
    if card**q > 10**8:
        raise ScaleExceeded(f"{predicate} on N elements: N^{q} exceeds the bound 10^8")
    holds, witness, scanned = scan(_moduli(ring))
    if witness is not None:
        elements = list(ring.iter_elements())
        witness = tuple(elements[i] for i in witness)
    return PredicateReport(predicate, holds, witness, scanned)


def check_clean_quotient(a: RingElement) -> PredicateReport:
    """Clean-ness of Z/|a| for a nonzero integer a (adequate elements have
    clean quotients; over Z that is every nonzero element)."""
    if not isinstance(a.ring, IntegerRing):
        raise UnsupportedRing("check_clean_quotient expects an integer")
    v = abs(a.payload)
    if v == 0:
        raise ZeroElement("the quotient by zero is not finite")
    if v == 1:
        return PredicateReport("Clean", True, None, 1, note="zero ring, vacuous")
    return check_finite_predicate(ModularRing(v), "Clean")


def bounded_refute_sr1(ring: ProductRing, triple) -> PredicateReport:
    """Decide whether some y gives aR + (b + c*y)R = R over a product of
    copies of Z, one component at a time. A component with a_i != 0 lifts
    by sr1_quotient_lift (Z/a_iZ is finite, so it has stable range 1); one
    with a_i = 0 lifts iff b_i + c_i*y_i = +-1 is solvable, i.e. c_i divides
    b_i - 1 or b_i + 1 (c_i = 0 forces b_i = +-1). A failure's note names
    the component and both remainders, which prove it; elements_scanned is
    the number of components decided."""
    if not isinstance(ring, ProductRing) or not all(
        isinstance(f, IntegerRing) for f in ring.factors
    ):
        raise UnsupportedRing("refuter expects a product of copies of Z")
    a, b, c = triple
    if a.ring != ring or b.ring != ring or c.ring != ring:
        raise PreconditionFailed("triple must live in the given product ring")
    if not all(math.gcd(x, y, z) == 1 for x, y, z in zip(a.payload, b.payload, c.payload)):
        raise PreconditionFailed("triple is not unimodular")
    if jacobson_member(a):
        raise PreconditionFailed("a lies in the radical")

    found: list[int] = []
    for i, (f, ai, bi, ci) in enumerate(zip(ring.factors, a.payload, b.payload, c.payload)):
        if ai:
            found.append(sr1_quotient_lift(*(RingElement(f, v) for v in (ai, bi, ci))).payload)
            continue
        (q1, r1), (q2, r2) = f.ops.div(bi - 1, ci), f.ops.div(bi + 1, ci)  # div(x, 0) = (0, x)
        if r1 and r2:
            note = (f"no lift: in component {i}, a = 0 and c = {int_to_decimal(ci)} divides neither "
                    f"b - 1 nor b + 1 (remainders {int_to_decimal(r1)}, {int_to_decimal(r2)})")
            return PredicateReport("JStableCondition", False, (a, b, c), i + 1, note=note)
        found.append(-q2 if r1 else -q1)  # b + c*(-q) = b - (b -+ 1) = +-1
    lift = "(" + ",".join(int_to_decimal(v) for v in found) + ")"
    return PredicateReport("JStableCondition", True, None, len(found), note=f"lift found: y = {lift}")
