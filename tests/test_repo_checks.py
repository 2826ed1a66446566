"""Checks on the source tree under src/edr and on edr commands run as real
processes: postconditions raise instead of asserting, no import or private
helper is left behind, inputs that factorize cannot take apart or that
carry a prime of high multiplicity finish with one JSON document, the
README's examples run as written, and inputs that once overflowed the
stack or took seconds (a deep descriptor, long rows) finish."""

import ast
import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from edr.rings import int_from_decimal, int_to_decimal, is_prime

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "edr"


def _trees():
    """(path relative to the repository, parsed module) for each source file."""
    return [(path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.rglob("*.py"))]


def _edr(argv, timeout, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "edr.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def _edr_doc(argv, cwd, timeout=120):
    """(exit code, stdout, document) of an edr process that must print one
    JSON object and exit with 0, 1 or 2."""
    proc = _edr(argv, timeout, cwd)
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        doc = None
    assert isinstance(doc, dict) and proc.returncode in (0, 1, 2), (
        f"edr {shlex.join(argv)}: exit {proc.returncode}, stdout {proc.stdout!r}, stderr {proc.stderr!r}"
    )
    return proc.returncode, proc.stdout, doc


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


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _looped_reads(node, attr, looped=False):
    """Lines that read `.attr` inside a loop. A for loop's iterable and a
    comprehension's first iterable are evaluated once, in the scope around
    the loop; everything else in a loop runs once per pass."""
    if isinstance(node, ast.Attribute) and node.attr == attr and looped:
        yield node.lineno
    inner = looped or isinstance(node, (ast.For, ast.AsyncFor, ast.While, *COMPREHENSIONS))
    for child in ast.iter_child_nodes(node):
        if isinstance(node, (ast.For, ast.AsyncFor)) and child is node.iter:
            yield from _looped_reads(child, attr, looped)
        elif isinstance(node, COMPREHENSIONS) and child is node.generators[0]:
            yield from _looped_reads(child.iter, attr, looped)
            for sub in (child.target, *child.ifs):
                yield from _looped_reads(sub, attr, True)
        else:
            yield from _looped_reads(child, attr, inner)


def test_entries_is_not_read_inside_a_loop_under_src():
    # RingMatrix.entries wraps every entry on each access, so code under
    # src/edr takes it once per matrix, never inside a loop
    found = [f"{path}:{line}" for path, tree in _trees() for line in _looped_reads(tree, "entries")]
    assert not found, ".entries read inside a loop under src/edr: " + ", ".join(found)


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


# ---------------------------------------------------------------------------
# the README's examples: the tests call cli.main in-process, and these run
# the examples as real processes too


README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    """(work directory, examples, (exit code, stdout) of each): each edr
    command of the README's command-line section run as a process, in a
    directory that holds the section's matrix file as m.txt and its
    reduction certificate as c.json."""
    work = tmp_path_factory.mktemp("readme")
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    (work / "m.txt").write_text(section.split("```\n", 2)[1], encoding="utf-8")  # the matrix file shown first
    examples = [shlex.split(line, comments=True)[1:] for line in section.splitlines() if line.startswith("edr ")]
    assert examples, "no edr examples found in README.md"
    (work / "c.json").write_text(_edr_doc(["reduce", "--ring", "Z", "--matrix", "m.txt"], work)[1], encoding="utf-8")
    return work, examples, [_edr_doc(argv, work)[:2] for argv in examples]


def test_readme_examples_in_process_match_their_process_runs(readme_runs, monkeypatch):
    # the examples run again, in order, through one in-process edr.cli.main,
    # whose parser is built once at import: each stdout and exit code must
    # be byte-equal to that example's process run
    from edr.cli import main

    work, examples, runs = readme_runs
    monkeypatch.chdir(work)
    for argv, run in zip(examples, runs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert (code, out.getvalue()) == run, (
            f"edr {shlex.join(argv)} in-process: exit {code}, stdout {out.getvalue()!r}; "
            f"as a process: exit {run[0]}, stdout {run[1]!r}"
        )


def test_verify_refuses_a_series_certificate(readme_runs):
    # no matrix exists over the series ring: its certificates are refused
    work = readme_runs[0]
    series = {"kind": "completion-certificate", "ring": "Zser4",
              "A": {"rows": [["{1;}", "{0;1}"], ["{0;}", "{1;}"]]}, "first_row": ["{1;}", "{0;1}"], "det": "{1;}"}
    (work / "s.json").write_text(json.dumps(series), encoding="utf-8")
    code, _, doc = _edr_doc(["verify", "--cert", "s.json"], work)
    assert (code, doc.get("error")) == (2, "UnsupportedRing"), f"verify over Zser4 gave exit {code} and {doc}"


def test_verify_reads_the_readme_documents(readme_runs):
    # verify reads reduction and completion certificates only: each complete
    # document verifies (exit 0, ok: true), and each split, lift and check
    # document is refused with a ParseError that names its kind (ok: true
    # once verify reads these kinds)
    work, examples, runs = readme_runs
    for idx, (argv, (_, out)) in enumerate(zip(examples, runs)):
        if argv[0] not in ("complete", "split", "lift", "check"):
            continue
        path = f"doc{idx}.json"
        (work / path).write_text(out, encoding="utf-8")
        code, _, doc = _edr_doc(["verify", "--cert", path], work)
        if argv[0] == "complete":
            assert code == 0 and doc.get("ok") is True, (
                f"verify on the document of edr {shlex.join(argv)} gave exit {code} and {doc}"
            )
            continue
        kind = json.loads(out)["kind"]
        assert code == 1 and doc.get("error") == "ParseError" and repr(kind) in doc.get("message", ""), (
            f"verify on the {kind} document of edr {shlex.join(argv)} gave exit {code} and {doc}"
        )


def test_readme_python_blocks_run(readme_runs):
    # each python block runs as written, as a process, and exits 0
    blocks = [block.split("```", 1)[0] for block in README.split("```python\n")[1:]]
    assert blocks, "no python examples found in README.md"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for code in blocks:
        proc = subprocess.run([sys.executable, "-c", code], cwd=readme_runs[0], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"README python example: exit {proc.returncode}, stderr {proc.stderr!r}"


# ---------------------------------------------------------------------------
# inputs that once overflowed the stack or took seconds, run as real
# processes at the default recursion limit. These are the slowest process
# checks here, and their timeouts rest on timings taken on Python 3.11, so
# they run on that version only (CI's 3.11 leg)

ON_311 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                            reason="long process check, timed on Python 3.11 and run on that version only")


def _finished_doc(proc, argv, codes):
    """Assert an exit code in `codes` and no traceback; the stdout document,
    {} when the document was written with --out."""
    try:
        doc = {} if "--out" in argv else json.loads(proc.stdout)
    except ValueError:
        doc = None
    assert isinstance(doc, dict) and proc.returncode in codes and "Traceback" not in proc.stderr, (
        f"edr {argv[0]}: exit {proc.returncode}, stdout {proc.stdout[:300]!r}, stderr {proc.stderr[-2000:]!r}"
    )
    return doc


@ON_311
def test_deep_descriptor_and_long_row_finish(tmp_path):
    # a product nested 300 deep gives one JSON object, exit code 0 or 2 and
    # no traceback; a 520-entry row must complete (exit 0, about 0.6 s on a
    # shared 2-CPU container, Python 3.11; it took 14 s before the
    # determinant peeled singleton lines, so the 120 s timeout catches a lost
    # peel) to a document written with --out, which verify accepts (one JSON
    # object, exit 0, ok: true)
    nest = "Z"
    for _ in range(300):
        nest = f"prod({nest},Z)"
    row = ",".join(str(6 + 10 * i) for i in range(520))
    for argv, codes in ((["check", "--ring", nest, "--predicate", "Clean"], (0, 2)),
                        (["complete", "--ring", "Z", "--row", row, "--det", "2", "--out", "c.json"], (0,)),
                        (["verify", "--cert", "c.json"], (0,))):
        doc = _finished_doc(_edr(argv, 120, tmp_path), argv, codes)
    assert doc.get("ok") is True, f"edr verify on the 520-entry completion: {doc}"


def _prime_above(v):
    v += 1
    while not is_prime(v):
        v += 1
    return v


@ON_311
def test_adversarial_zpq_row_completes_and_verifies(tmp_path):
    # a 200-entry row over the 256-bit Z/pq that the former stable-range
    # completion left with a 101-row core after peeling (about 6 s each for
    # complete and verify with Bareiss on the integer lift); Euclid's
    # completion peels completely, and complete and verify each take under
    # 1 s as processes on a shared 2-CPU container, Python 3.11. p is the
    # least prime above 2^127, q the least above p + 1, and the row is 100
    # multiples of p, then 100 residues, drawn with random.Random(7). Each
    # run must exit 0 with ok: true from verify and no traceback within 60 s
    p = _prime_above(2**127)
    q = _prime_above(p + 1)
    n = p * q
    rnd = random.Random(7)
    row = [p * rnd.randrange(1, q) for _ in range(100)] + [rnd.randrange(n) for _ in range(100)]
    for argv in (["complete", "--ring", f"Z/{n}", "--row", ",".join(map(str, row)), "--det", "1", "--out", "c.json"],
                 ["verify", "--cert", "c.json"]):
        proc = _edr(argv, 60, tmp_path)
        _finished_doc(proc, argv, (0,))
    assert json.loads(proc.stdout).get("ok") is True, f"edr verify on the adversarial completion: {proc.stdout}"
