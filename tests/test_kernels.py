"""The GF(p)[x] multiply kernels (Kronecker packing into one int) against
the schoolbook product of `oracles`, for primes from 2 to 2^89 - 1, so for
every slot width: 1, 2, 4 and 8 bytes and the wider ones. The matrix
product goes through a ring, and GF(p)[x] takes p below psi_13 only, so
there the widest prime is the largest below psi_13 (21 bytes and more).

The row kernels of the op tables, comb and quo, are checked against the
scalar entries of the same tables (sub, mul and div), and over GF(p)[x],
where every caller of the multiply-add-unpack kernel (rings._kmuladd) is
checked at every slot width, against `oracles` alone: comb against its
schoolbook products, the division on both sides of its schoolbook/Newton
crossover against its schoolbook division. One guard counts the pack and
unpack calls of each comb and quo call in a reduction and its verification.

Runs under pytest, or without it as a plain script:

    PYTHONPATH=src:tests python tests/test_kernels.py
"""

import random
import sys

import edr.matrices
import edr.rings
from edr.matrices import RingMatrix
from edr.reduce import diagonal_reduce, verify_reduction
from edr.rings import (
    _NEWTON_CROSSOVER,
    IntegerRing,
    ModularRing,
    PrimeFieldPolynomialRing,
    _kslot,
    _pcomb,
    _pdivmod,
    _pmul,
    _pquo,
)
from oracles import poly_divmod, poly_dot, poly_mul

PRIMES = (2, 3, 5, 17, 131, 251, 257, 65537, 2**31 - 1, 2**61 - 1, 2**89 - 1)
# the largest prime below psi_13 = 3317044064679887385961981
BELOW_PSI13 = 3317044064679887385961813
RING_PRIMES = PRIMES[:-1] + (BELOW_PSI13,)
MAX_LEN = 90

# (p, k, L): a 1 x k matrix times a k x 2 one, every entry L coefficients
# equal to p - 1, so that the largest coefficient of the product before the
# reduction mod p is k * L * (p - 1)^2, the bound the slot width is sized
# for. It lands on 2^8, 2^16 and 2^32, and just below each; 2^64 itself is
# out of reach (p - 1 would be a power of two and k * L at least 2^32), so
# the nearest values above and below it stand in.
BOUNDARY = (
    (3, 4, 16, 2**8),
    (2, 3, 85, 2**8 - 1),
    (17, 4, 64, 2**16),
    (2, 13107, 5, 2**16 - 1),
    (65537, 1, 1, 2**32),
    (65521, 1, 1, 2**32 - 2**21 + 2**8),
    (2**32 + 15, 1, 1, 2**64 + 28 * 2**32 + 196),
    (2**32 - 5, 1, 1, 2**64 - 12 * 2**32 + 36),
)


def poly(rng, p, length):
    """A canonical payload of exactly `length` coefficients, now and then
    all p - 1, the largest."""
    if not length:
        return ()
    if rng.random() < 0.2:
        return (p - 1,) * length
    return (*(rng.randrange(p) for _ in range(length - 1)), rng.randrange(1, p))


def matrix(rng, p, rows, cols):
    return [[poly(rng, p, rng.randrange(MAX_LEN + 1)) for _ in range(cols)] for _ in range(rows)]


def matmul_oracle(a, b, p):
    return [[poly_dot(row, col, p) for col in zip(*b)] for row in a]


def check_product(p, a, b):
    ring = PrimeFieldPolynomialRing(p)
    C = RingMatrix.from_payloads(ring, a) * RingMatrix.from_payloads(ring, b)
    assert C.payload_lists() == [list(row) for row in matmul_oracle(a, b, p)], (p, len(b))


def test_pmul_matches_schoolbook_for_every_length():
    for p in PRIMES:
        rng = random.Random(f"pmul/{p}")
        for length in range(MAX_LEN + 1):
            a, b = poly(rng, p, length), poly(rng, p, rng.randrange(MAX_LEN + 1))
            assert _pmul(a, b, p) == poly_mul(a, b, p), (p, length)
            assert _pmul(b, a, p) == poly_mul(b, a, p), (p, length)


def test_matrix_product_matches_schoolbook():
    for p in RING_PRIMES:
        rng = random.Random(f"matmul/{p}")
        for _ in range(4):
            m, k, n = (rng.randint(1, 3) for _ in range(3))
            check_product(p, matrix(rng, p, m, k), matrix(rng, p, k, n))


def test_largest_coefficient_on_and_below_each_slot_boundary():
    for p, k, length, largest in BOUNDARY:
        assert k * length * (p - 1) ** 2 == largest
        full = (p - 1,) * length
        check_product(p, [[full] * k], [[full, full]] * k)
        assert _pmul(full, full, p) == poly_mul(full, full, p)


def test_zero_factor_times_coefficients_past_one_byte():
    """The slot must hold p - 1 even when every product is zero: entries
    of the other factor are packed all the same."""
    for p in (257, 65537, 2**61 - 1, 2**89 - 1, BELOW_PSI13):
        big = (p - 1, 256, p - 2)
        if p in RING_PRIMES:
            zeros = [[()], [()]]
            check_product(p, [[big, big]], zeros)
            check_product(p, [[()]], [[big, (256,)]])
        assert _pmul((), big, p) == () == _pmul(big, (), p)


# ---------------------------------------------------------------------------
# row kernels: comb(a, xs, b, ys) = [a*x - b*y], quo(xs, d) = [x/d] or None

# (p, la, lb, C): comb with len(a) = la and len(b) = lb, every coefficient of
# a, of -b and of the row entries p - 1, so that the largest coefficient of
# a*x - b*y before the reduction mod p is C = (la + lb) * (p - 1)^2: the
# slot must hold the products of a and at least one more term. C lands on
# 2^8 and 2^16 and just below each. No such C lands on 2^32 or 2^64, so
# there la = lb = 1 with p - 1 just below 2^16 (2^32) stands in, one term
# below the boundary and both above it, and beside it the largest prime
# whose two terms stay below.
COMB_BOUNDARY = (
    (3, 63, 1, 2**8),
    (2, 254, 1, 2**8 - 1),
    (17, 255, 1, 2**16),
    (17, 254, 1, 2**16 - 2**8),
    (65521, 1, 1, 2 * 65520**2),
    (46337, 1, 1, 2 * 46336**2),
    (2**32 - 5, 1, 1, 2 * (2**32 - 6) ** 2),
    (3037000493, 1, 1, 2 * 3037000492**2),
)
# divisor lengths on both sides of the crossover
DIVISOR_LENGTHS = (1, 2, _NEWTON_CROSSOVER - 1, _NEWTON_CROSSOVER, _NEWTON_CROSSOVER + 1, 2 * _NEWTON_CROSSOVER + 3, 40)


def comb_oracle(a, xs, b, ys, p):
    """[a*x - b*y], each entry one schoolbook dot product with -b."""
    return [poly_dot([a, [(-c) % p for c in b]], [x, y], p) for x, y in zip(xs, ys)]


def scalar_comb(ops, a, xs, b, ys):
    return [ops.sub(ops.mul(a, x), ops.mul(b, y)) for x, y in zip(xs, ys)]


def scalar_quo(ops, xs, d):
    qr = [ops.div(x, d) for x in xs]
    return None if any(r != ops.zero for _, r in qr) else [q for q, _ in qr]


def test_comb_matches_the_scalar_entries_for_every_length():
    for p in PRIMES:
        rng = random.Random(f"comb/{p}")
        for length in range(MAX_LEN + 1):
            # a and b: zero, a constant, a sweep-sized quotient or any length
            a, b = (poly(rng, p, rng.choice([0, 1, rng.randint(1, 4), rng.randrange(MAX_LEN + 1)])) for _ in "ab")
            width = rng.randint(0, 4)
            xs = [poly(rng, p, rng.choice([0, length])) for _ in range(width)]
            ys = [poly(rng, p, rng.randrange(MAX_LEN + 1)) for _ in range(width)]
            assert _pcomb(a, xs, b, ys, p) == comb_oracle(a, xs, b, ys, p), (p, length)


def test_comb_slot_holds_both_products_on_and_below_each_boundary():
    for p, la, lb, largest in COMB_BOUNDARY:
        assert (la + lb) * (p - 1) ** 2 == largest
        a, b, full = (p - 1,) * la, (1,) * lb, (p - 1,) * max(la, lb)  # -b is all p - 1
        assert _pcomb(a, [full, full], b, [full, full], p) == comb_oracle(a, [full] * 2, b, [full] * 2, p), p
        assert _pcomb(b, [full], a, [full], p) == comb_oracle(b, [full], a, [full], p), p


def test_comb_with_the_unit_multiplier_matches_the_scalar_entries():
    # a = 1, as in the sweep's row steps, where an entry whose y is zero is x
    # itself: about a third of the ys are zero, and some xs
    for p in PRIMES:
        rng = random.Random(f"unit comb/{p}")
        for _ in range(40):
            b = poly(rng, p, rng.choice([0, 1, rng.randint(1, 4), rng.randrange(MAX_LEN + 1)]))
            width = rng.randint(1, 6)
            xs = [poly(rng, p, rng.choice([0, rng.randint(1, MAX_LEN)])) for _ in range(width)]
            ys = [poly(rng, p, 0 if rng.random() < 1 / 3 else rng.randint(1, MAX_LEN)) for _ in range(width)]
            assert _pcomb((1,), xs, b, ys, p) == comb_oracle((1,), xs, b, ys, p), p
            assert _pcomb((1,), [], b, [], p) == [], p
    # p = 5 on both sides of the byte slot: with len(b) = 14 the slot holds
    # 15 * 4^2 = 240 (one byte), with len(b) = 15 it holds 256 (two bytes);
    # -b, x and y are all p - 1
    assert (_kslot(5, 1 + 14), _kslot(5, 1 + 15)) == (1, 2)
    for lb in (14, 15):
        b, full = (1,) * lb, (4,) * MAX_LEN
        xs = [(4,) * (lb + MAX_LEN - 1), (4,) * 3, (), full]
        ys = [full, full, full, ()]
        assert _pcomb((1,), xs, b, ys, 5) == comb_oracle((1,), xs, b, ys, 5), lb


def _row(rng, p, d, exact):
    """Entries q*d for random q of lengths 0 to MAX_LEN, and, unless
    `exact`, one entry with a nonzero remainder (shorter than d)."""
    xs = [poly_mul(poly(rng, p, rng.randrange(MAX_LEN + 1)), d, p) for _ in range(rng.randint(1, 5))]
    if not exact:
        r = poly(rng, p, rng.randint(1, len(d) - 1))
        i = rng.randrange(len(xs))
        xs[i] = poly_dot([xs[i], r], [(1,), (p - 1,)], p)  # x - r
    return xs


def test_division_matches_the_oracle_on_both_sides_of_the_crossover():
    for p in PRIMES:
        rng = random.Random(f"quo/{p}")
        for m in DIVISOR_LENGTHS:
            d = poly(rng, p, m)
            xs = _row(rng, p, d, exact=True) + [()]
            assert _pquo(xs, d, p) == [poly_divmod(x, d, p)[0] for x in xs], (p, m)
            assert _pquo([], d, p) == []
            if m > 1:
                bad = _row(rng, p, d, exact=False)
                assert _pquo(bad, d, p) is None, (p, m)
                assert _pquo(bad[:1] + [poly(rng, p, m - 1)], d, p) is None  # a nonzero x shorter than d
                xs = bad
            for x in xs:
                assert _pdivmod(x, d, p) == poly_divmod(x, d, p), (p, m)


def _draw_row(rng, ring, width, nonzero=False):
    """`width` payloads of `ring`: zero (unless `nonzero`), one, small and
    large values."""
    if isinstance(ring, IntegerRing):
        draw = lambda: rng.choice([0, 1, -1, rng.randint(-9, 9), rng.randint(-(2**70), 2**70)])  # noqa: E731
    elif isinstance(ring, ModularRing):
        draw = lambda: rng.choice([0, 1, rng.randrange(ring.n)])  # noqa: E731
    else:
        draw = lambda: poly(rng, ring.p, rng.choice([0, 1, rng.randrange(12)]))  # noqa: E731
    row = [draw() for _ in range(width)]
    return [ring.ops.one if nonzero and v == ring.ops.zero else v for v in row]


ROW_RINGS = [
    IntegerRing(),
    ModularRing(2),
    ModularRing(360),
    ModularRing(2**64 + 13),
    PrimeFieldPolynomialRing(5),
]


def test_comb_and_quo_match_the_scalar_table_over_z_zn_and_gfpx():
    for ring in ROW_RINGS:
        ops = ring.ops
        rng = random.Random(f"rows/{ring}")
        for _ in range(60):
            width = rng.randint(0, 5)
            (a, b), xs, ys = (_draw_row(rng, ring, k) for k in (2, width, width))
            assert ops.comb(a, xs, b, ys) == scalar_comb(ops, a, xs, b, ys), ring
            if isinstance(ring, ModularRing):  # Z/n determinants divide nothing (matrices._zn_det)
                assert ops.quo is None, ring
                continue
            (d,) = _draw_row(rng, ring, 1, nonzero=True)
            assert ops.quo(xs, d) == scalar_quo(ops, xs, d), ring
            exact = [ops.mul(d, x) for x in xs]
            assert ops.quo(exact, d) == scalar_quo(ops, exact, d) is not None, ring


def test_every_caller_of_the_kernel_meets_the_oracles_at_every_slot_width():
    # the oracle tests above again, with the caller and the slot width of
    # each kernel call recorded (9 stands for every width above 8 bytes);
    # 2-byte slots are reduced by translate below p = 128, by % p above
    kernel, seen, halves = edr.rings._kmuladd, set(), set()

    def recorded(pa, xs, pb, ys, w, p, **low):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        caller = frame.f_code.co_name
        seen.add((caller + " unit" * (caller == "_pcomb" and pa == 1), min(w, 9)))
        if w == 2:
            halves.add(p < 128)
        return kernel(pa, xs, pb, ys, w, p, **low)

    edr.rings._kmuladd = edr.matrices._kmuladd = recorded
    try:
        test_pmul_matches_schoolbook_for_every_length()
        test_matrix_product_matches_schoolbook()
        test_largest_coefficient_on_and_below_each_slot_boundary()
        test_comb_matches_the_scalar_entries_for_every_length()
        test_comb_with_the_unit_multiplier_matches_the_scalar_entries()
        test_division_matches_the_oracle_on_both_sides_of_the_crossover()
    finally:
        edr.rings._kmuladd = edr.matrices._kmuladd = kernel
    callers = ("_pcomb", "_pcomb unit", "_pmul", "_pquo", "_matmul")
    assert seen == {(c, w) for c in callers for w in (1, 2, 4, 8, 9)}, sorted(seen)
    assert halves == {True, False}


def test_a_row_kernel_call_packs_and_unpacks_a_fixed_number_of_times():
    # a seeded GF(5)[x] 8x8 reduction and its verification, counting the
    # pack and unpack helpers (_kpack and the kernel) that each comb and quo
    # call makes outside the Newton reciprocal, whose products follow the
    # quotient's length: a call an entry would grow with the row
    names = ("_kpack", "_kmuladd", "_preciprocal", "_pcomb", "_pquo")
    originals, stack, records = {name: getattr(edr.rings, name) for name in names}, [], []

    def wrap(name):
        def wrapped(*args, **kw):
            if name in ("_kpack", "_kmuladd"):
                if stack:
                    stack[-1] += 1
                return originals[name](*args, **kw)
            stack.append(0)
            try:
                return originals[name](*args)
            finally:
                calls = stack.pop()
                if name != "_preciprocal":
                    records.append((name, len(args[1] if name == "_pcomb" else args[0]), calls))

        return wrapped

    rng = random.Random(8)
    A = RingMatrix.from_payloads(PrimeFieldPolynomialRing(5), [[poly(rng, 5, 4) for _ in range(8)] for _ in range(8)])
    for name in names:
        setattr(edr.rings, name, wrap(name))
    try:
        assert verify_reduction(A, diagonal_reduce(A)).ok
    finally:
        for name in names:
            setattr(edr.rings, name, originals[name])
    assert {calls for name, _, calls in records if name == "_pcomb"} == {3}  # a, -b and the kernel
    assert {calls for name, _, calls in records if name == "_pquo"} == {0, 4}  # schoolbook; Newton
    for name in ("_pcomb", "_pquo"):
        assert max(width for n, width, _ in records if n == name) >= 8, name


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
