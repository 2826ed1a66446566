import dataclasses
import hashlib
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edr import complete, rings
from edr.complete import (
    complete_row,
    idempotent_complete,
    sr1_quotient_lift,
    sr2_reduce,
    verify_completion,
)
from edr.errors import (
    EdrError,
    NotIdempotent,
    NotInIdeal,
    NotPrincipal,
    NotUnimodular,
    PreconditionFailed,
    UnsupportedRing,
)
from edr.matrices import RingMatrix
from edr.rings import (
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    ProductRing,
    TruncatedSeriesRing,
    bezout_combination,
    gcd_bezout,
    is_unit,
)
from edr.serialize import completion_certificate_to_doc, dumps

from oracles import in_ideal, perm_det, sr1_solution_exists_z

Z = IntegerRing()
M12 = ModularRing(12)
GF2 = PrimeFieldPolynomialRing(2)
GF5 = PrimeFieldPolynomialRing(5)


# ---------------------------------------------------------------------------
# stable range lifts


def test_sr1_examples():
    a, b, c = Z.from_int(6), Z.from_int(3), Z.from_int(2)
    y = sr1_quotient_lift(a, b, c)
    assert math.gcd(6, 3 + 2 * y.payload) == 1
    # the exhaustive oracle agrees a solution exists in [0, 6)
    assert sr1_solution_exists_z(6, 3, 2, 6)

    assert sr1_quotient_lift(Z.from_int(5), Z.one, Z.zero) == Z.zero

    y = sr1_quotient_lift(GF2.element([0, 1]), GF2.zero, GF2.one)
    assert y == GF2.one
    assert is_unit(gcd_bezout(GF2.element([0, 1]), y).g)


def test_sr1_preconditions():
    with pytest.raises(PreconditionFailed):
        sr1_quotient_lift(Z.from_int(2), Z.from_int(4), Z.from_int(6))  # not unimodular
    with pytest.raises(PreconditionFailed):
        sr1_quotient_lift(Z.zero, Z.from_int(2), Z.from_int(3))  # a in J(R)
    M6 = ModularRing(6)
    with pytest.raises(PreconditionFailed):
        sr1_quotient_lift(M6.zero, M6.one, M6.one)
    S = TruncatedSeriesRing(3)
    with pytest.raises(UnsupportedRing):
        sr1_quotient_lift(S.one, S.one, S.one)


def _random_unimodular_triple(ring, rng, need_a_outside_radical):
    while True:
        if isinstance(ring, IntegerRing):
            els = [ring.from_int(rng.randint(-40, 40)) for _ in range(3)]
        elif isinstance(ring, ModularRing):
            els = [ring.from_int(rng.randrange(ring.n)) for _ in range(3)]
        else:
            els = []
            for _ in range(3):
                deg = rng.randint(-1, 3)
                if deg < 0:
                    els.append(ring.zero)
                else:
                    els.append(
                        ring.element(
                            [rng.randrange(ring.p) for _ in range(deg)]
                            + [rng.randrange(1, ring.p)]
                        )
                    )
        g, _ = bezout_combination(els)
        if not is_unit(g):
            continue
        if need_a_outside_radical and els[0].ring.jacobson_member(els[0]):
            continue
        return els


@pytest.mark.parametrize("ring", [Z, M12, ModularRing(36), GF5])
def test_sr1_contract_random(ring):
    rng = random.Random(hash(str(ring)) & 0xFFF)
    for _ in range(100):
        a, b, c = _random_unimodular_triple(ring, rng, need_a_outside_radical=True)
        y = sr1_quotient_lift(a, b, c)
        assert is_unit(gcd_bezout(a, b + c * y).g)


def test_sr2_examples():
    y1, y2 = sr2_reduce(Z.zero, Z.from_int(2), Z.from_int(3))
    assert (y1, y2) == (Z.one, Z.zero)
    assert math.gcd(0 + 3 * 1, 2) == 1

    assert sr2_reduce(Z.one, Z.zero, Z.zero) == (Z.zero, Z.zero)

    a1, a2, a3 = M12.from_int(4), M12.from_int(3), M12.one
    y1, y2 = sr2_reduce(a1, a2, a3)
    assert is_unit(gcd_bezout(a1 + a3 * y1, a2 + a3 * y2).g)
    # exhaustive: some pair (y1, y2) always works in Z/12
    assert any(
        math.gcd(4 + u, 12) == 1 or math.gcd(math.gcd(4 + u, 3 + v), 12) == 1
        for u in range(12)
        for v in range(12)
    )


def test_sr2_not_unimodular():
    with pytest.raises(NotUnimodular):
        sr2_reduce(Z.from_int(2), Z.from_int(4), Z.from_int(8))


@pytest.mark.parametrize("ring", [Z, M12, GF5])
def test_sr2_contract_random(ring):
    rng = random.Random(0xBEEF)
    for _ in range(100):
        a1, a2, a3 = _random_unimodular_triple(ring, rng, need_a_outside_radical=False)
        y1, y2 = sr2_reduce(a1, a2, a3)
        assert is_unit(gcd_bezout(a1 + a3 * y1, a2 + a3 * y2).g)


def test_sr2_ternary_feedback_over_z():
    # with a3 = 3 the reduced pair feeds back through the ternary contract
    rng = random.Random(6)
    three = Z.from_int(3)
    for _ in range(60):
        a1 = Z.from_int(rng.randint(-30, 30))
        a2 = Z.from_int(rng.randint(-30, 30))
        g, _ = bezout_combination([a1, a2, three])
        if not is_unit(g):
            continue
        y1, y2 = sr2_reduce(a1, a2, three)
        assert math.gcd(a1.payload + 3 * y1.payload, a2.payload + 3 * y2.payload) == 1


# ---------------------------------------------------------------------------
# completion


def test_complete_row_base_example():
    cert = complete_row([Z.from_int(3), Z.from_int(5)], Z.one)
    assert cert.A.to_lists() == [
        [Z.from_int(3), Z.from_int(5)],
        [Z.one, Z.from_int(2)],
    ]
    assert cert.det_value == Z.one
    assert verify_completion(cert).ok


def test_complete_row_examples():
    cert = complete_row([Z.from_int(2), Z.from_int(4), Z.from_int(6)], Z.from_int(2))
    assert cert.det_value == Z.from_int(2)
    assert perm_det([[e.payload for e in row] for row in cert.A.entries]) == 2

    cert = complete_row([Z.zero, Z.zero], Z.zero)
    assert cert.A.to_lists() == [[Z.zero, Z.zero], [Z.zero, Z.zero]]
    assert cert.det_value == Z.zero

    # a zero target zeroes the second row; the rows of V below it stay
    cert = complete_row([Z.zero] * 3, Z.zero)
    assert [[e.payload for e in row] for row in cert.A.entries] == [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    assert verify_completion(cert).ok


def test_complete_row_rejects_non_principal():
    with pytest.raises(NotPrincipal):
        complete_row([Z.from_int(2), Z.from_int(4)], Z.from_int(3))
    with pytest.raises(NotPrincipal):
        complete_row([Z.from_int(4), Z.from_int(6)], Z.one)
    with pytest.raises(PreconditionFailed):
        complete_row([Z.one], Z.one)
    with pytest.raises(PreconditionFailed, match="share"):
        complete_row([Z.one, M12.one], Z.one)
    S = TruncatedSeriesRing(3)
    with pytest.raises(UnsupportedRing):
        complete_row([S.one, S.one], S.one)


def test_complete_row_radical_cases():
    # rows with zero entries or entries in the radical (2 and 4 over Z/4
    # and Z/8): the entry of least size (gcd(a, n) over Z/n) goes first and
    # the others are divided by it, whatever the radical holds
    cases = [
        (Z, [0, 3, 5], 1),  # a zero in front: 3 is swapped there
        (Z, [0, 0, 5], 5),  # one nonzero entry, swapped to the front
        (Z, [0, 0, 0, 7], 7),
        (ModularRing(4), [2, 3, 1], 1),
        (ModularRing(4), [2, 2, 1], 1),
        (ModularRing(8), [2, 2, 4, 1], 1),
    ]
    for ring, payload, d in cases:
        row = [ring.from_int(v) for v in payload]
        cert = complete_row(row, ring.from_int(d))
        assert verify_completion(cert).ok, (str(ring), payload, d)
        assert tuple(cert.A.entries[0]) == tuple(row)


def test_complete_row_random_over_z():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(2, 5)
        row = [Z.from_int(rng.randint(-30, 30)) for _ in range(n)]
        d = Z.from_int(math.gcd(*[v.payload for v in row]))
        cert = complete_row(row, d)
        assert verify_completion(cert).ok
        assert perm_det([[e.payload for e in r] for r in cert.A.entries]) == d.payload


@pytest.mark.parametrize("n", [6, 12, 30])
def test_complete_row_random_modular(n):
    ring = ModularRing(n)
    rng = random.Random(900 + n)
    for _ in range(100):
        k = rng.randint(2, 5)
        row = [ring.from_int(rng.randrange(n)) for _ in range(k)]
        d, _ = bezout_combination(row)
        cert = complete_row(row, d)
        assert verify_completion(cert).ok


def test_complete_row_polynomials():
    rng = random.Random(47)
    for _ in range(60):
        k = rng.randint(2, 4)
        row = []
        for _ in range(k):
            deg = rng.randint(-1, 2)
            if deg < 0:
                row.append(GF5.zero)
            else:
                row.append(
                    GF5.element([rng.randrange(5) for _ in range(deg)] + [rng.randrange(1, 5)])
                )
        d, _ = bezout_combination(row)
        cert = complete_row(row, d)
        assert verify_completion(cert).ok


def test_complete_row_scaling_invariance():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 4)
        row = [Z.from_int(rng.randint(-20, 20)) for _ in range(n)]
        d = Z.from_int(math.gcd(*[v.payload for v in row]))
        base = complete_row(row, d)
        assert verify_completion(base).ok
        u = Z.from_int(-1)
        scaled = complete_row([u * a for a in row], u * d)
        assert verify_completion(scaled).ok


def test_complete_row_accepts_associate_determinants():
    # d need not be the canonical generator, only a generator
    cert = complete_row([Z.from_int(4), Z.from_int(6)], Z.from_int(-2))
    assert cert.det_value == Z.from_int(-2)
    assert verify_completion(cert).ok


def _generators(ring, g):
    """Generators of the ideal (g) to complete to: every one over Z/n, g and
    -g over Z, c*g for each nonzero constant c over GF(5)[x]."""
    if isinstance(ring, ModularRing):
        return [ring.from_int(t) for t in range(ring.n) if math.gcd(t, ring.n) == math.gcd(g.payload, ring.n)]
    return [ring.from_int(c) * g for c in ((1, -1) if ring == Z else range(1, 5))]


@settings(max_examples=150, deadline=None)
@given(ring=st.sampled_from([ModularRing(4), M12, ModularRing(36), Z, GF5]), k=st.integers(2, 5), seed=st.integers(0, 2**32))
@example(ring=M12, k=2, seed=11)  # the row [8, 4]: g = 4, and t = 8 scales by the non-unit 2
def test_complete_row_meets_every_generator_of_the_row_ideal(ring, k, seed):
    # the row completes to its gcd g and the second row is scaled by t / g,
    # which over Z/n need not be a unit: each certificate keeps the row and
    # has determinant exactly t
    rng = random.Random(seed)
    if isinstance(ring, ModularRing):
        f = rng.choice([f for f in range(1, ring.n + 1) if ring.n % f == 0])
        row = [ring.from_int(f * rng.randrange(ring.n)) for _ in range(k)]
    elif ring == Z:
        row = [Z.from_int(rng.randint(-30, 30)) for _ in range(k)]
    else:
        common = GF5.element([rng.randrange(5) for _ in range(rng.randint(0, 2))] + [1])
        row = [common * GF5.element([rng.randrange(5) for _ in range(rng.randint(0, 3))]) for _ in range(k)]
    g, _ = bezout_combination(row)
    for t in _generators(ring, g):
        cert = complete_row(row, t)
        assert tuple(cert.A.entries[0]) == tuple(row)
        assert cert.det_value == t
        assert verify_completion(cert).ok, (str(ring), row, t)


@pytest.mark.parametrize("ring", [Z, ModularRing(360), ModularRing(2**64 + 13)], ids=str)
def test_verify_completion_names_a_tampered_determinant(ring):
    # each tamper leaves the first row alone, so the determinant check is
    # the only one that can see it: an entry of A moved so that det A
    # moves, det_value alone and det_target alone
    row = [ring.from_int(v) for v in (6, 10, 15, 7)]
    cert = complete_row(row, ring.one)
    assert verify_completion(cert).ok
    rows = cert.A.payload_lists()
    for j in range(len(rows)):  # det A is linear in row 1, and some cofactor on it is not 0
        rows[1][j] += 1
        if ring.from_int(perm_det(rows)) != cert.det_value:
            break
        rows[1][j] -= 1
    moved = dataclasses.replace(cert, A=RingMatrix.from_payloads(ring, rows))
    assert moved.A.entries[0] == cert.A.entries[0] and moved.A != cert.A
    two = ring.from_int(2)
    for tampered in (moved, dataclasses.replace(cert, det_value=two), dataclasses.replace(cert, det_target=two)):
        assert verify_completion(tampered).failures == ("det = target",)


def _long_row(k):
    # 6, 16, 26, ...: gcd 2, every quotient odd or a multiple of 4 apart
    return [Z.from_int(6 + 10 * i) for i in range(k)]


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_completion_depth_does_not_grow_with_the_row():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        cert = complete_row(_long_row(100), Z.from_int(2))
    finally:
        sys.setrecursionlimit(limit)
    assert cert.det_value == Z.from_int(2) and cert.A.rows == 100


def test_completion_products_grow_at_most_quadratically(monkeypatch):
    # the construction forms its entries in the op table's row kernel: each
    # pass divides the row by its least entry and adds one row of V per
    # nonzero quotient, so a row of k entries forms O(k^2) of them
    formed = [0]
    comb = IntegerRing.ops.comb

    def counted(a, xs, b, ys):
        out = comb(a, xs, b, ys)
        formed[0] += len(out)
        return out

    monkeypatch.setattr(IntegerRing, "ops", IntegerRing.ops._replace(comb=counted))
    for k in (50, 200):
        formed[0] = 0
        complete._rows_to(Z, _long_row(k), Z.from_int(2))
        assert 0 < formed[0] <= 2 * k * k, (k, formed[0])


def _count_gcd_bezout(monkeypatch):
    calls = [0]
    gcd = rings.gcd_bezout

    def counted(a, b):
        calls[0] += 1
        return gcd(a, b)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "edr" and getattr(module, "gcd_bezout", None) is gcd:
            monkeypatch.setattr(module, "gcd_bezout", counted)
    return calls


def test_completion_checks_each_lift_once(monkeypatch):
    # complete_row runs Euclid on the row's payloads through the op table's
    # div: the construction takes no Bezout gcd and no stable-range lift
    calls = _count_gcd_bezout(monkeypatch)
    cert = complete_row(_long_row(3), Z.from_int(2))
    assert cert.det_value == Z.from_int(2)
    assert calls[0] == 0, calls


def test_idempotent_completion_folds_the_row_once(monkeypatch):
    # idempotent_complete([3, 4, 5], 4) over Z/12 runs the same Euclid as
    # complete_row, and the ideal test is its last division: no Bezout gcd
    calls = _count_gcd_bezout(monkeypatch)
    cert = idempotent_complete([M12.from_int(v) for v in (3, 4, 5)], M12.from_int(4))
    assert cert.det_value == M12.from_int(4)
    assert calls[0] == 0, calls


def _completion_corpus():
    """Seeded rows over Z, seven Z/n (half their entries drawn from the
    nilradical), GF(2)[x] and GF(5)[x], each with the row's gcd or some other
    determinant (often refused), and three long rows over Z. Three (number of
    cases, sha256 of every certificate document or refusal in turn) pairs:
    the refused cases, those whose target is the row's canonical nonzero gcd
    (bezout_combination's g), then the others (zero targets and other
    generators of the row's ideal)."""
    rng = random.Random(2024)
    cases = [(Z, [6 + 10 * i for i in range(k)], 2) for k in (3, 17, 40)]
    for _ in range(120):
        row = [rng.randint(-30, 30) for _ in range(rng.randint(2, 9))]
        cases.append((Z, row, math.gcd(*row) * rng.choice([1, 1, 1, -1, 2, 3])))
    for n in (4, 8, 12, 30, 36, 72, 360):
        rad = math.prod(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))
        for _ in range(30):
            row = [rad * rng.randrange(n) if rng.random() < 0.5 else rng.randrange(n)
                   for _ in range(rng.randint(2, 7))]
            cases.append((ModularRing(n), row, None if rng.random() < 0.8 else rng.randrange(n)))
    for p in (2, 5):
        for _ in range(40):
            row = [[rng.randrange(p) for _ in range(rng.randint(0, 4))] for _ in range(rng.randint(2, 6))]
            cases.append((PrimeFieldPolynomialRing(p), row, None if rng.random() < 0.8 else [rng.randrange(p)] * 2))
    counts, digests = [0, 0, 0], [hashlib.sha256() for _ in range(3)]
    for ring, payloads, d in cases:
        row = [ring.from_int(v) if isinstance(v, int) else ring.element(v) for v in payloads]
        g, _ = bezout_combination(row)
        if d is None:
            target = g
        else:
            target = ring.from_int(d) if isinstance(d, int) else ring.element(d)
        try:
            text = dumps(completion_certificate_to_doc(ring, complete_row(row, target)))
            kind = 2 if target != g or target.is_zero() else 1
        except EdrError as exc:
            text, kind = f"{exc.code}: {exc.message}\n", 0
        counts[kind] += 1
        digests[kind].update(text.encode())
    return [(k, h.hexdigest()) for k, h in zip(counts, digests)]


def test_completion_documents_match_the_recorded_corpus():
    # the refusals (codes and messages) are pinned apart from the
    # certificates and were recorded from the stable-range induction that
    # Euclid on the payloads replaced, which refuses exactly the same cases.
    # The two certificate pins are recorded from the Euclid construction: it
    # keeps each first row and determinant but gives other entries
    refused, canonical, other = _completion_corpus()
    assert refused == (89, "d27babc2ca4394c48eecbaeebdc9f778e4541cde771d707c040fed5b5aab5337")
    assert canonical == (296, "a19a23f10147e654ab3e6bd8ac19cd9e0c806aefcadb920558b0fe02c8c8aabe")
    assert other == (28, "931c924564d29e2ef9e539f547ae147b54e779454d082d3cfa106d5f4d604963")


# ---------------------------------------------------------------------------
# idempotent completion


def test_idempotent_examples():
    M6 = ModularRing(6)
    cert = idempotent_complete([M6.from_int(3), M6.zero], M6.from_int(3))
    assert cert.det_value == M6.from_int(3)
    assert verify_completion(cert).ok

    cert = idempotent_complete([M12.from_int(5), M12.zero], M12.one)
    assert cert.det_value == M12.one
    assert verify_completion(cert).ok

    cert = idempotent_complete([M6.from_int(2), M6.from_int(2)], M6.from_int(4))
    assert cert.det_value == M6.from_int(4)
    assert verify_completion(cert).ok


def test_idempotent_zero_and_errors():
    M6 = ModularRing(6)
    cert = idempotent_complete([M6.from_int(2), M6.from_int(5)], M6.zero)
    assert cert.det_value == M6.zero
    with pytest.raises(NotIdempotent):
        idempotent_complete([M6.one, M6.zero], M6.from_int(2))
    with pytest.raises(NotInIdeal):
        idempotent_complete([M6.from_int(2), M6.zero], M6.from_int(3))
    with pytest.raises(UnsupportedRing):
        idempotent_complete([Z.one, Z.zero], Z.one)
    with pytest.raises(PreconditionFailed, match="two row entries"):
        idempotent_complete([M6.one], M6.one)
    with pytest.raises(PreconditionFailed, match="share"):
        idempotent_complete([M6.one, M12.one], M6.one)


def test_idempotent_exhaustive_small_moduli():
    # every row of length 2 (and 3 for n = 6, 12) and every idempotent:
    # refused exactly where e is outside the row's ideal, certified with
    # determinant e everywhere else
    for n, k in [(6, 2), (12, 2), (30, 2), (36, 2), (6, 3), (12, 3)]:
        ring = ModularRing(n)
        idems = [ring.from_int(e) for e in range(n) if e * e % n == e]
        for row, e in itertools.product(itertools.product(map(ring.from_int, range(n)), repeat=k), idems):
            if not in_ideal(ring, row, e):
                with pytest.raises(NotInIdeal):
                    idempotent_complete(row, e)
                continue
            cert = idempotent_complete(row, e)
            assert cert.det_value == e
            assert verify_completion(cert).ok


def test_idempotent_product_ring():
    ring = ProductRing([Z, ModularRing(6)])
    e = ring.element((1, 3))
    assert e * e == e
    row = [ring.element((3, 3)), ring.element((5, 0))]
    cert = idempotent_complete(row, e)
    assert cert.det_value == e
    assert verify_completion(cert).ok

    e0 = ring.element((0, 1))
    row = [ring.element((7, 5)), ring.element((2, 0))]
    cert = idempotent_complete(row, e0)
    assert cert.det_value == e0
    assert verify_completion(cert).ok

    # a polynomial factor next to a modular one, every idempotent of the
    # product: the first row's ideal is (x + 1) x (2), the second's all
    ring = ProductRing([PrimeFieldPolynomialRing(3), M12])
    idems = [ring.element((p, m)) for p in ((), (1,)) for m in (0, 1, 4, 9)]
    for payloads in ([((1, 1), 2), ((2, 0, 1), 6), ((), 10)], [((1, 1), 3), ((0, 2, 1), 4)]):
        row = [ring.element(v) for v in payloads]
        for e in idems:
            if not in_ideal(ring, row, e):
                with pytest.raises(NotInIdeal):
                    idempotent_complete(row, e)
                continue
            cert = idempotent_complete(row, e)
            assert cert.det_value == e
            assert verify_completion(cert).ok


def test_idempotent_nested_product_ring():
    # products complete componentwise, a nested factor included
    ring = ProductRing([ModularRing(4), ProductRing([ModularRing(3), ModularRing(5)])])
    row = [ring.element((1, (1, 2))), ring.element((2, (0, 3)))]
    for e in (ring.one, ring.element((1, (0, 1)))):
        assert e * e == e
        cert = idempotent_complete(row, e)
        assert cert.det_value == e
        assert verify_completion(cert).ok


def test_idempotent_complete_takes_one_determinant(monkeypatch):
    calls = []
    det = RingMatrix.det
    monkeypatch.setattr(RingMatrix, "det", lambda self: calls.append(self.rows) or det(self))
    row = [M12.from_int(v) for v in (3, 4, 5)]
    cert = idempotent_complete(row, M12.from_int(4))
    assert calls == [3]
    assert cert.det_value == M12.from_int(4)
    assert verify_completion(cert).ok


def test_lifts_and_completion_over_a_128_bit_modulus(prime_pair_128):
    p, q = prime_pair_128
    ring = ModularRing(p * q)
    rng = random.Random(7)
    for _ in range(3):
        start = time.perf_counter()
        a = ring.from_int(p * rng.randrange(q))
        b, c = ring.from_int(rng.randrange(p * q)), ring.from_int(rng.randrange(p * q))
        y = sr1_quotient_lift(a, b, c)
        assert math.gcd((b + c * y).payload, a.payload, p * q) == 1
        y1, y2 = sr2_reduce(ring.from_int(p), b, c)
        assert math.gcd(p + c.payload * y1.payload, b.payload + c.payload * y2.payload, p * q) == 1
        row = [ring.from_int(p * 3), ring.from_int(q * 5), ring.from_int(rng.randrange(p * q))]
        cert = complete_row(row, ring.one)
        assert verify_completion(cert).ok
        e = ring.from_int(q * pow(q, -1, p))  # 1 mod p, 0 mod q
        cert = idempotent_complete(row, e)
        assert verify_completion(cert).ok
        assert time.perf_counter() - start < 1.0
