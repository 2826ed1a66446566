"""The GF(p)[x] multiply kernels (Kronecker packing into one int) against
the schoolbook product of `oracles`, for primes from 2 to 2^89 - 1, so for
every slot width: 1, 2, 4 and 8 bytes and the wider ones. The matrix
product goes through a ring, and GF(p)[x] takes p below psi_13 only, so
there the widest prime is the largest below psi_13 (21 bytes and more).

Runs under pytest, or without it as a plain script:

    PYTHONPATH=src:tests python tests/test_kernels.py
"""

import random

from edr.matrices import RingMatrix
from edr.rings import PrimeFieldPolynomialRing, _pmul
from oracles import poly_dot, poly_mul

PRIMES = (2, 3, 5, 17, 251, 257, 65537, 2**31 - 1, 2**61 - 1, 2**89 - 1)
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


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
