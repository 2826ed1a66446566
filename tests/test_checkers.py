"""Finite-ring predicate scans.

Every finite commutative ring here is a product of local rings, so the four
predicates genuinely hold on every Z/n; the false branch of the report is
reachable only through the lift decision over products of copies of Z,
whose obstruction gets re-verified by direct componentwise gcd below. One
engine scans Z/n and products alike; it is checked against the brute
RingElement scan of `oracles.brute_predicate_scan`, its documents are
pinned, and its failure walk (unreachable on real rings) is checked on its
own.
"""

import hashlib
import itertools
import math

import pytest

from edr import checkers
from edr.checkers import (
    PREDICATES,
    bounded_refute_sr1,
    check_clean_quotient,
    check_finite_predicate,
    pair_unimodular,
    predicate_clause_holds,
)
from edr.errors import PreconditionFailed, ScaleExceeded, UnsupportedRing
from edr.parsing import parse_ring
from edr.rings import IntegerRing, ModularRing, ProductRing, jacobson_member
from edr.serialize import dumps, predicate_report_to_doc
from oracles import brute_predicate_scan, pair_unimodular_by_scan

Z = IntegerRing()
ZxZ = ProductRing([Z, Z])


def test_predicate_examples():
    rep = check_finite_predicate(ModularRing(12), "StableRange1")
    assert rep.holds and rep.witness is None and rep.elements_scanned > 0

    assert check_finite_predicate(ModularRing(30), "Clean").holds

    for n in range(2, 25):
        assert check_finite_predicate(ModularRing(n), "PmRing").holds


def test_predicates_on_products_cross_validate():
    # Z/2 x Z/3 is isomorphic to Z/6, so the engine's verdicts on the two
    # presentations must agree
    prod = ProductRing([ModularRing(2), ModularRing(3)])
    flat = ModularRing(6)
    for pred in PREDICATES:
        assert check_finite_predicate(prod, pred).holds == check_finite_predicate(flat, pred).holds


def test_predicate_guards():
    with pytest.raises(UnsupportedRing):
        check_finite_predicate(Z, "Clean")
    with pytest.raises(ScaleExceeded):
        check_finite_predicate(ModularRing(10**4 + 1), "Clean")
    with pytest.raises(ValueError):
        check_finite_predicate(ModularRing(6), "NotAPredicate")


def test_predicate_clause_replay_positive():
    ring = ModularRing(12)
    assert predicate_clause_holds("StableRange1", (ring.from_int(3), ring.from_int(4)))
    assert predicate_clause_holds("Clean", (ring.from_int(7),))
    assert predicate_clause_holds("PmRing", (ring.from_int(4),))
    assert predicate_clause_holds(
        "JStableCondition", (ring.from_int(4), ring.from_int(3), ring.from_int(1))
    )


def test_fast_ideal_test_agrees_with_scan():
    for n in (6, 8, 12):
        ring = ModularRing(n)
        for a in range(n):
            for b in range(n):
                ea, eb = ring.from_int(a), ring.from_int(b)
                assert pair_unimodular(ea, eb) == pair_unimodular_by_scan(ea, eb)
    prod = ProductRing([ModularRing(2), ModularRing(3)])
    for a in prod.iter_elements():
        for b in prod.iter_elements():
            assert pair_unimodular(a, b) == pair_unimodular_by_scan(a, b)


def test_pair_unimodular_over_z_is_a_gcd_of_one():
    for a, b in itertools.product(range(-12, 13), repeat=2):
        assert pair_unimodular(Z.from_int(a), Z.from_int(b)) == (math.gcd(a, b) == 1), (a, b)


def test_pm_gcd_test_agrees_with_the_double_loop():
    for n in range(2, 121):
        for a in range(n):
            b = 1 - a
            loop = any((1 - a * x) * (1 - b * y) % n == 0 for x in range(n) for y in range(n))
            assert checkers._pm_holds(a, n) == loop, (a, n)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_reach_gcd_agrees_with_the_search_over_z():
    # some r + g*z (z mod n) is coprime to x iff gcd(x, g, r) = 1, for x and
    # g dividing n and every residue r
    for n in range(2, 61):
        for x, g in itertools.product(_divisors(n), repeat=2):
            for r in range(n):
                loop = any(math.gcd(x, r + g * z) == 1 for z in range(n))
                assert checkers._reaches((x,), (r,), (g,)) == loop, (n, x, g, r)
    # two factors: one z in Z/4 x Z/6 must serve both at once
    moduli = (4, 6)
    for xs, gs in itertools.product(
        itertools.product(*map(_divisors, moduli)), itertools.product(*map(_divisors, moduli))
    ):
        for rs in itertools.product(*map(range, moduli)):
            loop = any(
                all(math.gcd(x, r + g * z) == 1 for x, r, g, z in zip(xs, rs, gs, zs))
                for zs in itertools.product(*map(range, moduli))
            )
            assert checkers._reaches(xs, rs, gs) == loop, (xs, rs, gs)


def test_scan_decides_each_class_triple_once(monkeypatch):
    # the failing classes depend only on the classes of the target and of the
    # prefix's last element, so the inner clause runs at most once per
    # triple of classes, not once per prefix
    calls = []
    reaches = checkers._reaches
    monkeypatch.setattr(checkers, "_reaches", lambda *args: calls.append(args) or reaches(*args))
    assert check_finite_predicate(ModularRing(72), "JStableCondition").holds
    classes = len(checkers._IdealClasses([72]).gcds)
    assert classes == 12 and 0 < len(calls) <= classes**3


def test_clean_quotient_examples():
    assert check_clean_quotient(Z.from_int(12)).holds
    rep = check_clean_quotient(Z.one)
    assert rep.holds and "vacuous" in rep.note
    assert check_clean_quotient(Z.from_int(97)).holds
    assert check_clean_quotient(Z.from_int(-30)).holds


def test_clean_quotient_guards():
    from edr.errors import ZeroElement

    with pytest.raises(ZeroElement):
        check_clean_quotient(Z.zero)
    with pytest.raises(ScaleExceeded):
        check_clean_quotient(Z.from_int(10**5))
    with pytest.raises(UnsupportedRing):
        check_clean_quotient(ModularRing(6).from_int(2))


def test_bounded_refuter_finds_failing_triple_by_search():
    # search small triples for one with no lift, then check the obstruction
    # its note names: a = 0 in that component and c divides neither b - 1
    # nor b + 1, so no y up to 10^4 either way gives a coprime pair
    found = None
    for a2, b2, c2 in itertools.product(range(0, 6), range(0, 6), range(0, 6)):
        a = ZxZ.element((2, a2))
        b = ZxZ.element((3, b2))
        c = ZxZ.element((5, c2))
        try:
            rep = bounded_refute_sr1(ZxZ, (a, b, c))
        except PreconditionFailed:
            continue
        if not rep.holds:
            found = (a, b, c, rep)
            break
    assert found is not None
    a, b, c, rep = found
    assert rep.witness == (a, b, c)
    assert rep.elements_scanned == 2
    a2, b2, c2 = a.payload[1], b.payload[1], c.payload[1]
    assert a2 == 0 and (b2 - 1) % c2 and (b2 + 1) % c2
    r1, r2 = (r if 2 * r <= c2 else r - c2 for r in ((b2 - 1) % c2, (b2 + 1) % c2))
    assert rep.note == (f"no lift: in component 1, a = 0 and c = {c2} divides neither "
                        f"b - 1 nor b + 1 (remainders {r1}, {r2})")
    assert all(math.gcd(a2, b2 + c2 * y) != 1 for y in range(-10**4, 10**4 + 1))


def test_bounded_refuter_trivial_cases():
    a = ZxZ.element((1, 1))
    b = ZxZ.element((3, 0))
    c = ZxZ.element((0, 1))
    rep = bounded_refute_sr1(ZxZ, (a, b, c))
    assert rep.holds and "lift found" in rep.note and rep.elements_scanned == 2

    # c = (1,1) always succeeds: solve each component directly
    a = ZxZ.element((4, 9))
    b = ZxZ.element((6, 3))
    c = ZxZ.element((1, 1))
    rep = bounded_refute_sr1(ZxZ, (a, b, c))
    assert rep.holds
    ys = [int(v) for v in rep.note.split("(")[1].rstrip(")").split(",")]
    assert math.gcd(4, 6 + ys[0]) == 1 and math.gcd(9, 3 + ys[1]) == 1

    # a = 0 lifts through b + c*y = +-1, and c = 0 only at b = +-1
    a = ZxZ.element((0, 1))
    for b2, c2 in ((3, 2), (4, 5), (-1, 0), (1, 0)):
        rep = bounded_refute_sr1(ZxZ, (a, ZxZ.element((b2, 0)), ZxZ.element((c2, 0))))
        assert rep.holds, (b2, c2)
        y = int(rep.note.split("(")[1].split(",")[0])
        assert abs(b2 + c2 * y) == 1
    rep = bounded_refute_sr1(ZxZ, (a, ZxZ.element((2, 0)), ZxZ.element((5, 0))))
    assert not rep.holds and rep.elements_scanned == 1
    assert "component 0" in rep.note and "(remainders 1, -2)" in rep.note


def test_bounded_refuter_preconditions():
    with pytest.raises(PreconditionFailed):
        bounded_refute_sr1(
            ZxZ,
            (ZxZ.element((2, 2)), ZxZ.element((4, 2)), ZxZ.element((6, 2))),
        )
    with pytest.raises(PreconditionFailed):
        bounded_refute_sr1(
            ZxZ, (ZxZ.element((0, 0)), ZxZ.element((1, 1)), ZxZ.element((1, 1)))
        )
    with pytest.raises(UnsupportedRing):
        bounded_refute_sr1(
            ProductRing([ModularRing(4), ModularRing(9)]),
            (None, None, None),
        )


def test_stable_range_one_up_to_200():
    for n in range(2, 201):
        rep = check_finite_predicate(ModularRing(n), "StableRange1")
        assert rep.holds, n


def test_jstable_condition_up_to_100():
    for n in range(2, 101):
        rep = check_finite_predicate(ModularRing(n), "JStableCondition")
        assert rep.holds, n


# every two-factor product of Z/m with N <= 30, a three-factor product and a
# nested one, which the engine flattens in iteration order
_PRODUCTS = [f"prod(Z/{m},Z/{k})" for m in range(2, 16) for k in range(2, 30 // m + 1)] + [
    "prod(Z/2,Z/2,Z/3)",
    "prod(prod(Z/2,Z/3),Z/4)",
]


@pytest.mark.parametrize("predicate", PREDICATES)
def test_engine_matches_the_brute_scan(predicate):
    for spec in [f"Z/{n}" for n in range(2, 31)] + _PRODUCTS:
        ring = parse_ring(spec)
        rep = check_finite_predicate(ring, predicate)
        assert (rep.holds, rep.elements_scanned) == brute_predicate_scan(ring, predicate), spec


# sha256 over the predicate-report documents of all four predicates,
# recorded while Z/n and products still had separate scans
PINNED_REPORTS = {
    "Z/n": "820b9c8bddad75c4e3fb0b9bd31f1a84a6992290941ef8af0347a887dec1dbc7",
    "products": "96732301dc98357591001d534aa53c43ad70acfd38cb27e51445b5cb66032c25",
}
_PIN_SPECS = {"Z/n": [f"Z/{n}" for n in range(2, 41)], "products": _PRODUCTS}


@pytest.mark.parametrize("group", sorted(PINNED_REPORTS))
def test_predicate_reports_are_pinned(group):
    digest = hashlib.sha256()
    for spec in _PIN_SPECS[group]:
        ring = parse_ring(spec)
        for predicate in PREDICATES:
            doc = predicate_report_to_doc(ring, check_finite_predicate(ring, predicate))
            digest.update(dumps(doc).encode())
    assert digest.hexdigest() == PINNED_REPORTS[group]


def test_failure_walk_finds_the_first_tuple_in_order(monkeypatch):
    # no finite ring fails a predicate, so failures are injected: the engine
    # must report the first failing tuple in iteration order and its count
    ring = parse_ring("prod(prod(Z/2,Z/3),Z/4)")
    elements = list(ring.iter_elements())
    fake = lambda n: [r != 1 for r in range(n)] if n == 4 else [True] * n
    monkeypatch.setitem(
        checkers._PREDICATES, "Clean", (2, lambda moduli: checkers._scan_elements(moduli, fake), checkers._clean_clause)
    )
    rep = check_finite_predicate(ring, "Clean")
    first = next(e for e in elements if e.payload[1] == 1)
    assert not rep.holds and rep.witness == (first,) and rep.elements_scanned == 24

    # a failure on every tuple whose last element has the ideal class g in
    # the Z/4 factor, against the plain nested loop over elements
    def z4_class(e):
        return math.gcd(e.payload[1], 4)

    def first_failure(predicate, g):
        count = 0
        for t in itertools.product(elements, repeat=2 if predicate == "StableRange1" else 3):
            if predicate == "JStableCondition" and jacobson_member(t[0]):
                continue
            if pair_unimodular(t[-2], t[-1]):
                count += 1
                if z4_class(t[-1]) == g:
                    return t, count

    for g in (1, 2, 4):
        monkeypatch.setattr(checkers, "_reaches", lambda xs, rs, gs: gs[2] != g)
        for predicate in ("StableRange1", "JStableCondition"):
            rep = check_finite_predicate(ring, predicate)
            assert not rep.holds
            assert (rep.witness, rep.elements_scanned) == first_failure(predicate, g)
