"""Postcondition checks are explicit raises, so they also hold under -O."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from edr import reduce
from edr.complete import _certify
from edr.errors import EdrError, PostconditionFailed
from edr.matrices import RingMatrix, _bareiss
from edr.rings import _NEWTON_CROSSOVER, IntegerRing, PrimeFieldPolynomialRing

SRC = Path(__file__).resolve().parent.parent / "src"
Z = IntegerRing()

FORCED = textwrap.dedent(
    """
    import sys

    from edr import reduce
    from edr.complete import _certify
    from edr.errors import PostconditionFailed
    from edr.matrices import RingMatrix, _bareiss
    from edr.rings import IntegerRing

    if not sys.flags.optimize:
        sys.exit("expected to run under -O")
    Z = IntegerRing()
    caught = []
    try:  # a completion whose determinant misses the target
        _certify(Z, [[Z.one, Z.zero], [Z.zero, Z.one]], [Z.one, Z.zero], Z.from_int(2))
    except PostconditionFailed as exc:
        caught.append(exc.code)
    reduce._sweep = lambda ops, A, P, Q: (2, 1)  # a lost unit, as payloads
    try:
        reduce.diagonal_reduce(RingMatrix.from_payloads(Z, [[2, 4], [6, 8]]))
    except PostconditionFailed as exc:
        caught.append(exc.code)
    ops = Z.ops  # elimination rows off by one, so odd: the division by an even pivot is inexact
    off_by_one = ops._replace(comb=lambda a, xs, b, ys: [v + 1 for v in ops.comb(a, xs, b, ys)])
    try:
        _bareiss([[2, 4, 6], [4, 2, 8], [6, 8, 2]], off_by_one)
    except PostconditionFailed as exc:
        caught.append(exc.code)
    print(",".join(caught))
    """
)
# every pivot of its elimination is even, so rows off by one are odd
EVEN = [[2, 4, 6], [4, 2, 8], [6, 8, 2]]


def test_forced_postcondition_failures_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORCED], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "PostconditionFailed,PostconditionFailed,PostconditionFailed"


def test_postcondition_failures_are_edr_errors(monkeypatch):
    assert issubclass(PostconditionFailed, EdrError)
    with pytest.raises(PostconditionFailed):
        _certify(Z, [[Z.one]], [Z.from_int(2)], Z.one)  # first row not preserved
    monkeypatch.setattr(reduce, "_sweep", lambda ops, A, P, Q: (1, 3))
    with pytest.raises(PostconditionFailed):
        reduce.diagonal_reduce(RingMatrix.from_payloads(Z, [[1, 2], [3, 4]]))


def _off_by_one(ops):
    """The table with a comb whose every entry is one more than it should be."""
    return ops._replace(comb=lambda a, xs, b, ys: [ops.add(v, ops.one) for v in ops.comb(a, xs, b, ys)])


def _gf5_rows(length, seed):
    """A 3 x 3 GF(5)[x] matrix of entries with exactly `length` coefficients."""
    rng = random.Random(seed)
    return [[(*(rng.randrange(5) for _ in range(length - 1)), rng.randrange(1, 5)) for _ in range(3)] for _ in range(3)]


@pytest.mark.parametrize(
    "ring, rows",
    [
        (Z, EVEN),
        # the divisor, the first pivot, is shorter than the crossover: schoolbook division
        (PrimeFieldPolynomialRing(5), _gf5_rows(3, seed=3)),
        # the divisor has the crossover's length or more: Newton division
        (PrimeFieldPolynomialRing(5), _gf5_rows(_NEWTON_CROSSOVER + 1, seed=3)),
    ],
    ids=["Z", "GF5-schoolbook", "GF5-newton"],
)
def test_bareiss_remainder_raises_postcondition_failed(ring, rows):
    _bareiss([list(row) for row in rows], ring.ops)  # the true table divides exactly
    with pytest.raises(PostconditionFailed, match="remainder"):
        _bareiss([list(row) for row in rows], _off_by_one(ring.ops))


def test_no_assert_statements_in_the_library():
    for path in sorted((SRC / "edr").glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            assert not line.lstrip().startswith("assert "), f"{path.name}:{number}"
