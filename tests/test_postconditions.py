"""Postcondition checks are explicit raises, so they also hold under -O."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from edr import reduce
from edr.complete import _certify
from edr.errors import EdrError, PostconditionFailed
from edr.matrices import RingMatrix
from edr.rings import IntegerRing

SRC = Path(__file__).resolve().parent.parent / "src"
Z = IntegerRing()

FORCED = textwrap.dedent(
    """
    import sys

    from edr import reduce
    from edr.complete import _certify
    from edr.errors import PostconditionFailed
    from edr.matrices import RingMatrix
    from edr.rings import IntegerRing

    if not sys.flags.optimize:
        sys.exit("expected to run under -O")
    Z = IntegerRing()
    caught = []
    try:  # a completion whose determinant misses the target
        _certify(Z, [[Z.one, Z.zero], [Z.zero, Z.one]], [Z.one, Z.zero], Z.from_int(2))
    except PostconditionFailed as exc:
        caught.append(exc.code)
    reduce._sweep = lambda ring, A, P, Q: (ring.from_int(2), ring.one)  # a lost unit
    try:
        reduce.diagonal_reduce(RingMatrix.from_payloads(Z, [[2, 4], [6, 8]]))
    except PostconditionFailed as exc:
        caught.append(exc.code)
    print(",".join(caught))
    """
)


def test_forced_postcondition_failures_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORCED], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "PostconditionFailed,PostconditionFailed"


def test_postcondition_failures_are_edr_errors(monkeypatch):
    assert issubclass(PostconditionFailed, EdrError)
    with pytest.raises(PostconditionFailed):
        _certify(Z, [[Z.one]], [Z.from_int(2)], Z.one)  # first row not preserved
    monkeypatch.setattr(reduce, "_sweep", lambda ring, A, P, Q: (ring.one, ring.from_int(3)))
    with pytest.raises(PostconditionFailed):
        reduce.diagonal_reduce(RingMatrix.from_payloads(Z, [[1, 2], [3, 4]]))


def test_no_assert_statements_in_the_library():
    for path in sorted((SRC / "edr").glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            assert not line.lstrip().startswith("assert "), f"{path.name}:{number}"
