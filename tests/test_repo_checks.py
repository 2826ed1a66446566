"""Checks on the source tree under src/edr and on edr commands run as real
processes: postconditions raise instead of asserting, no import or private
helper is left behind, and inputs that factorize cannot take apart or that
carry a prime of high multiplicity finish with one JSON document."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from edr.rings import int_from_decimal, int_to_decimal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "edr"


def _trees():
    """(path relative to the repository, parsed module) for each source file."""
    return [(path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.rglob("*.py"))]


def _edr(argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "edr.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_no_assert_statements_under_src():
    # aim 3: postconditions are explicit raises, since asserts vanish under python -O
    found = [f"{path}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements under src/edr: " + ", ".join(found)


def test_no_unused_imports_under_src():
    # aim 2: a refactor that leaves an import behind fails here; a name
    # listed in the module's __all__ counts as used (a re-export)
    found = []
    for path, tree in _trees():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        found += [f"{path}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, "unused imports under src/edr: " + ", ".join(found)


def test_no_dead_private_helpers_under_src():
    # aim 2: a refactor that leaves a private helper behind fails here; a
    # module-level _name function or class must be referred to somewhere
    # under src/edr outside its own body (dunder names are exempt)
    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))

    trees = _trees()
    used = sum((names(tree) for _, tree in trees), Counter())
    found = [f"{path}:{node.lineno} {node.name}" for path, tree in trees for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.endswith("__")
             and used[node.name] == names(node)[node.name]]
    assert not found, "unused private functions or classes under src/edr: " + ", ".join(found)


# the product of the two least primes above 2^40 (which factorize's rho
# budget gives up on) and the 4096-bit prime power 2^4095, where m = 4095 is
# found by squarings: the pi-split takes its exponent from gcds and never
# factors n
@pytest.mark.parametrize("n, a, b", [(1208925819660808663073173, 6, 4), (2**4095, 6, 10)], ids=["pq", "2^4095"])
def test_pi_split_over_moduli_factorize_cannot_take_apart(n, a, b):
    proc = _edr(["split", "--pi", "--ring", f"Z/{n}", "--a", str(a), "--b", str(b)], timeout=120)
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        doc = None
    assert proc.returncode == 0 and isinstance(doc, dict) and doc.get("kind") == "adequate-split", (
        f"edr split --pi over a {n.bit_length()}-bit modulus: exit {proc.returncode}, "
        f"stdout {proc.stdout[:300]!r}, stderr {proc.stderr[-2000:]!r}"
    )


# a prime of multiplicity 320,000 (a 96 KB literal) and x^32000 (a 64 KB
# literal): a split that strips one power per gcd takes about 52 s on the
# first and over 100 s on the second as a process on a shared 2-CPU
# container (Python 3.11); squared gcds take under 1.2 s there, so the 10 s
# timeout catches a lost squaring
CLIFFS = [
    ("Z", int_to_decimal(2**320000), "2", "1"),
    ("GF(5)[x]", "[" + "0," * 32000 + "1]", "[0,1]", "[1]"),
]


@pytest.mark.parametrize("ring, a, b, c", CLIFFS, ids=["Z", "GF(5)[x]"])
@pytest.mark.parametrize("command", ["split", "lift"])
def test_split_and_lift_of_a_prime_power_finish(command, ring, a, b, c):
    argv = [command, "--ring", ring, "--a", a, "--b", b] + (["--c", c] if command == "lift" else [])
    proc = _edr(argv, timeout=10)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout)
    assert isinstance(doc, dict) and doc["kind"] == ("adequate-split" if command == "split" else "lift")
    if (command, ring) == ("split", "Z"):
        r, s = (int_from_decimal(doc[k]) for k in ("r", "s"))
        assert (r, r * s) == (1, 2**320000)
