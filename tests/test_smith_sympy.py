"""D against sympy's Smith normal form, past the 6x6 cap of the minors oracle."""

import random

import pytest

from edr.matrices import RingMatrix
from edr.reduce import diagonal_reduce, verify_reduction
from edr.rings import IntegerRing, PrimeFieldPolynomialRing, canonical_associate

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.normalforms import smith_normal_form  # noqa: E402

Z = IntegerRing()
GF5 = PrimeFieldPolynomialRing(5)


def _sympy_diagonal(domain, convert, A):
    rows = [[convert(e.payload) for e in row] for row in A.entries]
    S = smith_normal_form(DomainMatrix(rows, (A.rows, A.cols), domain)).to_list()
    return [S[i][i] for i in range(min(A.rows, A.cols))]


def _seeded(ring, n, rng, entry, rank_deficient):
    rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
    if rank_deficient:
        rows[-1] = list(rows[0])
    return RingMatrix(ring, rows)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_integer_smith_form_matches_sympy(n, rank_deficient):
    rng = random.Random(f"smith/Z/{n}/{rank_deficient}")
    A = _seeded(Z, n, rng, lambda r: Z.from_int(r.randint(-9, 9)), rank_deficient)
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    expected = [abs(int(d)) for d in _sympy_diagonal(sympy.ZZ, sympy.ZZ, A)]
    assert [cert.D.entries[i][i].payload for i in range(n)] == expected


def _gf5_from_sympy(f):
    coeffs = f.to_dict()
    deg = max((k[0] for k in coeffs), default=-1)
    return GF5.element([int(coeffs.get((i,), 0)) % 5 for i in range(deg + 1)])


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("rank_deficient", [False, True])
def test_gf5_polynomial_smith_form_matches_sympy(n, rank_deficient):
    K = sympy.GF(5)[sympy.symbols("x")]
    rng = random.Random(f"smith/GF5/{n}/{rank_deficient}")

    def entry(r):
        return GF5.element([r.randrange(5) for _ in range(4)])

    def convert(payload):
        return K.ring.from_dict({(i,): c for i, c in enumerate(payload) if c})

    A = _seeded(GF5, n, rng, entry, rank_deficient)
    cert = diagonal_reduce(A)
    assert verify_reduction(A, cert).ok
    expected = [canonical_associate(_gf5_from_sympy(d))[1] for d in _sympy_diagonal(K, convert, A)]
    assert [cert.D.entries[i][i] for i in range(n)] == expected
