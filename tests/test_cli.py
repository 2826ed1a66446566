import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edr import cli, errors, serialize
from edr.adequate import verify_adequate
from edr.checkers import PREDICATES
from edr.cli import main
from edr.parsing import parse_element, parse_ring
from edr.rings import _PRODUCT_DEPTH_BOUND, ModularRing, PrimeFieldPolynomialRing
from oracles import _build_parser

MATRIX = "ring: Z\nshape: 2 2\n2 4\n6 8\n"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_example(capsys, matrix_file):
    code, out, err = run(capsys, "reduce", "--ring", "Z", "--matrix", matrix_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "reduction-certificate"
    assert doc["D"]["rows"] == [["2", "0"], ["0", "4"]]
    assert err == ""


def test_reduce_is_deterministic(capsys, matrix_file):
    _, out1, _ = run(capsys, "reduce", "--matrix", matrix_file)
    _, out2, _ = run(capsys, "reduce", "--matrix", matrix_file)
    assert out1 == out2


def test_reduce_ring_mismatch(capsys, matrix_file, tmp_path):
    code, out, _ = run(capsys, "reduce", "--ring", "Z/12", "--matrix", matrix_file)
    assert code == 2
    assert json.loads(out)["error"] == "DescriptorMismatch"

    m12, cert = tmp_path / "m12.txt", tmp_path / "c12.json"
    m12.write_text(MATRIX.replace("ring: Z", "ring: Z/12"), encoding="utf-8")
    assert run(capsys, "reduce", "--matrix", str(m12), "--out", str(cert))[0] == 0
    code, out, _ = run(capsys, "verify", "--matrix", matrix_file, "--cert", str(cert))
    assert code == 2 and json.loads(out)["error"] == "DescriptorMismatch"


def test_complete_example(capsys):
    code, out, _ = run(capsys, "complete", "--ring", "Z", "--row", "3,5", "--det", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["A"]["rows"] == [["3", "5"], ["1", "2"]]
    assert doc["det"] == "1"


def test_complete_precondition_exit_code(capsys):
    code, out, _ = run(capsys, "complete", "--ring", "Z", "--row", "2,4", "--det", "3")
    assert code == 2
    assert json.loads(out)["error"] == "NotPrincipal"


def test_split_commands(capsys):
    code, out, _ = run(capsys, "split", "--ring", "Z", "--a", "12", "--b", "10")
    assert code == 0
    doc = json.loads(out)
    assert (doc["r"], doc["s"], doc["m"]) == ("3", "4", 1)
    assert doc["witness"]["g"] == "1"

    code, out, _ = run(capsys, "split", "--ring", "Z/12", "--a", "6", "--b", "4", "--pi")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2

    code, out, _ = run(
        capsys, "split", "--ring", "Zser4", "--a", "{12;1,0,0}", "--b", "{10;0,0,0}"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "series-split"
    assert doc["s"].startswith("{3;") and doc["t"].startswith("{4;")

    code, out, _ = run(capsys, "split", "--ring", "Z", "--a", "0", "--b", "5")
    assert code == 2
    assert json.loads(out)["error"] == "ZeroElement"


def test_split_pi_needs_a_modular_ring(capsys):
    for ring, a, b in (("Z", "6", "4"), ("Zser2", "{6;0}", "{4;0}")):
        code, out, _ = run(capsys, "split", "--ring", ring, "--a", a, "--b", b, "--pi")
        assert code == 1, ring
        assert json.loads(out) == {"error": "UsageError", "message": "--pi needs a Z/<n> ring"}


def test_lift_commands(capsys):
    code, out, _ = run(capsys, "lift", "--ring", "Z", "--a", "5", "--b", "1", "--c", "0")
    assert code == 0
    assert json.loads(out)["y"] == "0"

    code, out, _ = run(
        capsys, "lift", "--ring", "Z", "--a", "0", "--b", "2", "--c", "3", "--sr2"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["y1"], doc["y2"]) == ("1", "0")

    code, out, _ = run(capsys, "lift", "--ring", "Z", "--a", "2", "--b", "4", "--c", "6")
    assert code == 2
    assert json.loads(out)["error"] == "PreconditionFailed"


# sha256 over the exit code and stdout of `lift` and `lift --sr2` on seeded
# triples, refusals included, joined in order. Z/360 and Z/1024 draw half
# their entries from the nilradical, so the radical refusal shows up too.
PINNED_LIFT_DOCUMENTS = {
    "Z": "c43ca407cbc01767ddf9f1df578750ee1c26c5f73cdf0612acdb3d6d2017ab5f",
    "Z/360": "564e47c3fd10eafe1292d4d7d654d7ef1cc373e5716cf10917e2ab900830c4fc",
    "Z/1024": "ed5fdf0cb59df914aa64fb2c5c499d890d1a0e68398dee7f3c771e178d6b8033",
    "GF(3)[x]": "e6b4a2173c51cb848cbc25525305fde6cc5f636be51ad6f0028d53136830b1e8",
}


def _lift_literal(ring, rng):
    if isinstance(ring, ModularRing):
        rad = 30 if ring.n == 360 else 2
        return str(rng.randrange(ring.n) * (rad if rng.random() < 0.5 else 1) % ring.n)
    if isinstance(ring, PrimeFieldPolynomialRing):
        return "[" + ",".join(str(rng.randrange(ring.p)) for _ in range(rng.randint(0, 3))) + "]"
    return str(rng.choice([0, 1, 2, 3]) and rng.randint(-40, 40))


@pytest.mark.parametrize("spec", sorted(PINNED_LIFT_DOCUMENTS))
def test_lift_documents_are_pinned(capsys, spec):
    ring = parse_ring(spec)
    rng = random.Random(f"lift-pin/{spec}")
    digest = hashlib.sha256()
    for _ in range(60):
        a, b, c = (_lift_literal(ring, rng) for _ in range(3))
        for mode in ([], ["--sr2"]):
            code, out, _ = run(capsys, "lift", "--ring", spec, "--a", a, "--b", b, "--c", c, *mode)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == PINNED_LIFT_DOCUMENTS[spec]


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--ring", "Z/12", "--predicate", "StableRange1")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and doc["witness"] is None
    assert doc["elements_scanned"] > 0


def test_verify_round_trip_and_tamper(capsys, matrix_file, tmp_path):
    cert_path = tmp_path / "c.json"
    code, _, _ = run(
        capsys, "reduce", "--matrix", matrix_file, "--out", str(cert_path)
    )
    assert code == 0

    code, out, _ = run(capsys, "verify", "--matrix", matrix_file, "--cert", str(cert_path))
    assert code == 0
    assert json.loads(out)["ok"] is True

    doc = json.loads(cert_path.read_text())
    doc["D"]["rows"][1][1] = "5"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--matrix", matrix_file, "--cert", str(bad_path))
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False and "PAQ=D" in report["failures"]


def test_verify_completion_certificate(capsys, tmp_path):
    cert_path = tmp_path / "comp.json"
    code, _, _ = run(
        capsys,
        "complete",
        "--ring",
        "Z/6",
        "--row",
        "3,5",
        "--det",
        "1",
        "--out",
        str(cert_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0

    doc = json.loads(cert_path.read_text())
    doc["first_row"][0] = "4"
    bad = tmp_path / "badcomp.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--cert", str(bad))
    assert code == 2
    assert "first row match" in json.loads(out)["failures"]


def test_parse_errors_exit_1(capsys, matrix_file):
    code, out, _ = run(capsys, "reduce", "--ring", "Z/oops", "--matrix", matrix_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ParseError" and doc["position"] >= 0

    code, out, _ = run(capsys, "split", "--ring", "Z", "--a", "12x", "--b", "1")
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_usage_errors_exit_1(capsys):
    code, out, _ = run(capsys, "split", "--ring", "Z", "--a", "1")
    assert code == 1
    assert json.loads(out)["error"] == "UsageError"

    code, out, _ = run(capsys, "reduce")  # no --matrix
    assert code == 1

    code, out, _ = run(capsys, "check", "--ring", "Z/6", "--predicate", "Bogus")
    assert code == 1

    code, out, _ = run(capsys, "split", "--a", "6", "--b", "4")  # no --ring
    assert code == 1
    assert json.loads(out)["error"] == "UsageError"


def test_missing_file_exit_1(capsys):
    code, out, _ = run(capsys, "reduce", "--matrix", "/nonexistent/m.txt")
    assert code == 1
    assert json.loads(out)["error"] == "IOError"


def test_out_writes_file_and_stdout_stays_clean(capsys, matrix_file, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "reduce", "--matrix", matrix_file, "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["kind"] == "reduction-certificate"


def test_seed_flag_is_accepted(capsys, matrix_file):
    code, out, _ = run(capsys, "reduce", "--matrix", matrix_file, "--seed", "42")
    assert code == 0
    _, out2, _ = run(capsys, "reduce", "--matrix", matrix_file, "--seed", "7")
    assert out == out2  # nothing in the core is randomized


# pairs in which the first call sets what the second leaves out: a flag, an
# output file, a usage error, a seed and a command
SEQUENCE = [
    ["split", "--ring", "Z/12", "--a", "6", "--b", "4", "--pi"],
    ["split", "--ring", "Z/12", "--a", "6", "--b", "4"],
    ["reduce", "--ring", "Z", "--matrix", "m.txt", "--out", "c.json"],
    ["reduce", "--ring", "Z", "--matrix", "m.txt"],
    ["complete", "--ring", "Z", "--det", "1"],
    ["complete", "--ring", "Z", "--row", "3,5", "--det", "1"],
    ["lift", "--ring", "Z", "--a", "6", "--b", "3", "--c", "2", "--seed", "7"],
    ["lift", "--ring", "Z", "--a", "6", "--b", "3", "--c", "2"],
    ["verify", "--ring", "Z", "--matrix", "m.txt", "--cert", "c.json"],
    ["reduce", "--ring", "Z", "--matrix", "m.txt"],
]


def test_calls_in_one_process_share_no_state(capsys, monkeypatch, tmp_path):
    (tmp_path / "m.txt").write_text(MATRIX, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__
    counted = lambda self, *a, **kw: built.append(1) or init(self, *a, **kw)  # noqa: E731
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cert = tmp_path / "c.json"
    read_cert = lambda: cert.read_bytes() if cert.exists() else None  # noqa: E731
    in_process = []
    for argv in SEQUENCE:
        code, out, err = run(capsys, *argv)
        in_process.append((code, out, err, read_cert()))
    assert built == []  # every call ran on the parser built at import

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cert.unlink()
    for argv, (code, out, err, written) in zip(SEQUENCE, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "edr.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert written == read_cert(), argv
    # without --pi, Z/12 has no adequate split: a --pi left over would answer 0
    assert [c for c, *_ in in_process] == [0, 2, 0, 0, 1, 0, 0, 0, 0, 0]


def test_importing_the_library_builds_no_parser():
    probe = "import edr, sys; print(sorted({'argparse', 'edr.cli'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    # the command line itself is read against a table: no argparse either
    probe = "import edr.cli, sys; print('argparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_every_emitted_certificate_round_trips(capsys, tmp_path):
    # reduce -> verify and complete -> verify, across rings and shapes
    import random

    rng = random.Random(3141)
    for idx, ring in enumerate(["Z", "Z/12", "GF(5)[x]"]):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if ring == "Z":
            lit = lambda: str(rng.randint(-9, 9))
        elif ring == "Z/12":
            lit = lambda: str(rng.randrange(12))
        else:
            lit = lambda: "[" + ",".join(str(rng.randrange(5)) for _ in range(rng.randint(1, 3))) + "]"
        body = "\n".join(" ".join(lit() for _ in range(n)) for _ in range(m))
        mat = tmp_path / f"m{idx}.txt"
        mat.write_text(f"ring: {ring}\nshape: {m} {n}\n{body}\n", encoding="utf-8")
        cert = tmp_path / f"c{idx}.json"
        assert run(capsys, "reduce", "--matrix", str(mat), "--out", str(cert))[0] == 0
        code, out, _ = run(capsys, "verify", "--matrix", str(mat), "--cert", str(cert))
        assert code == 0 and json.loads(out)["ok"] is True

    comp = tmp_path / "comp.json"
    assert run(capsys, "complete", "--ring", "Z", "--row", "6,10,15", "--det", "1",
               "--out", str(comp))[0] == 0
    code, out, _ = run(capsys, "verify", "--cert", str(comp))
    assert code == 0 and json.loads(out)["ok"] is True


def _reduction_doc(capsys, matrix_file, tmp_path):
    cert_path = tmp_path / "c.json"
    assert run(capsys, "reduce", "--matrix", matrix_file, "--out", str(cert_path))[0] == 0
    return json.loads(cert_path.read_text())


def _verify_doc(capsys, tmp_path, doc, *extra):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run(capsys, "verify", "--cert", str(path), *extra)


def test_verify_malformed_documents_are_json_errors(capsys, matrix_file, tmp_path):
    good = _reduction_doc(capsys, matrix_file, tmp_path)
    empty_q = json.loads(json.dumps(good))
    empty_q["Q"] = {"rows": []}
    number_literal = json.loads(json.dumps(good))
    number_literal["P"]["rows"][0][0] = 1
    number_det = json.loads(json.dumps(good))
    number_det["detQ"] = 1
    ragged = json.loads(json.dumps(good))
    ragged["D"]["rows"][1] = ["0"]
    bad_shape = json.loads(json.dumps(good))
    bad_shape["P"]["shape"] = 2
    completion_rows = {"kind": "completion-certificate", "ring": "Z", "A": {"rows": [[1]]},
                       "first_row": "1", "det": "1"}
    for doc in ([good], [], "text", 5, None, empty_q, number_literal, number_det, ragged,
                bad_shape, completion_rows, {"ring": 5, "P": {}, "D": {}, "Q": {}, "detP": "1", "detQ": "1"}):
        code, out, err = _verify_doc(capsys, tmp_path, doc, "--matrix", matrix_file)
        assert code == 1, doc
        assert json.loads(out)["error"] == "ParseError", doc
        assert "Traceback" not in err


def test_verify_unreadable_files_are_json_errors(capsys, matrix_file, tmp_path):
    text = json.dumps(_reduction_doc(capsys, matrix_file, tmp_path))
    path = tmp_path / "cut.json"
    path.write_text(text[: len(text) // 2], encoding="utf-8")  # truncated
    code, out, _ = run(capsys, "verify", "--matrix", matrix_file, "--cert", str(path))
    doc = json.loads(out)
    assert code == 1 and doc["error"] == "ParseError" and 0 < doc["position"] <= len(text) // 2
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, _ = run(capsys, "verify", "--matrix", matrix_file, "--cert", str(path))
    assert code == 1 and json.loads(out)["error"] == "ParseError"
    path.write_text('{"detP": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--matrix", matrix_file, "--cert", str(path))
    assert code == 1 and json.loads(out)["error"] == "ParseError"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--matrix", matrix_file, "--cert", str(path))
    assert code == 1 and json.loads(out)["error"] == "ParseError"
    path.write_bytes(b"ring: Z\nshape: 1 1\n\xff\n")
    code, out, _ = run(capsys, "reduce", "--matrix", str(path))
    assert code == 1 and json.loads(out)["error"] == "ParseError"


def test_verify_non_square_completion_is_a_failed_check(capsys, tmp_path):
    doc = {"kind": "completion-certificate", "ring": "Z", "A": {"rows": [["1", "2"]]},
           "first_row": ["1", "2"], "det": "1"}
    code, out, _ = _verify_doc(capsys, tmp_path, doc)
    assert code == 2
    assert json.loads(out)["failures"] == ["shapes consistent"]


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("adequate-split", ["split", "--ring", "Z", "--a", "12", "--b", "10"]),
        ("series-split", ["split", "--ring", "Zser4", "--a", "{12;1,0,0}", "--b", "{10;0,0,0}"]),
        ("lift", ["lift", "--ring", "Z", "--a", "6", "--b", "3", "--c", "2"]),
        ("predicate-report", ["check", "--ring", "Z/12", "--predicate", "Clean"]),
        ("verification-report", ["verify", "--cert", "comp.json"]),
    ],
)
def test_verify_names_a_document_kind_it_does_not_read(capsys, tmp_path, monkeypatch, kind, argv):
    # each of these documents once answered "lacks the 'P' field"
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "complete", "--ring", "Z", "--row", "3,5", "--det", "1", "--out", "comp.json")[0] == 0
    assert run(capsys, *argv, "--out", "doc.json")[0] == 0
    assert json.loads((tmp_path / "doc.json").read_text())["kind"] == kind
    code, out, err = run(capsys, "verify", "--cert", "doc.json")
    doc = json.loads(out)
    assert code == 1 and doc["error"] == "ParseError", doc
    assert repr(kind) in doc["message"] and "reduction and completion certificates" in doc["message"]
    assert "Traceback" not in err


def test_reduce_and_verify_integers_beyond_the_digit_limit(capsys, tmp_path):
    # entries of 4401 digits, past Python's 4300-digit int<->str limit, both
    # in the matrix read and in the certificate written
    import random

    rng = random.Random(24)
    digits = "0123456789"
    rows = [
        [rng.choice(("", "-")) + rng.choice(digits[1:]) + "".join(rng.choices(digits, k=4400)) for _ in range(3)]
        for _ in range(3)
    ]
    mat = tmp_path / "m3.txt"
    mat.write_text("ring: Z\nshape: 3 3\n" + "\n".join(map(" ".join, rows)) + "\n", encoding="utf-8")
    cert = tmp_path / "c3.json"
    assert run(capsys, "reduce", "--matrix", str(mat), "--out", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    assert max(len(lit) for key in "PDQ" for row in doc[key]["rows"] for lit in row) > 4300
    code, out, _ = run(capsys, "verify", "--matrix", str(mat), "--cert", str(cert))
    assert code == 0 and json.loads(out)["ok"] is True


def test_commands_over_a_128_bit_modulus(capsys, tmp_path, prime_pair_128):
    import random
    import time

    p, q = prime_pair_128
    n = p * q
    rng = random.Random(4)
    mat = tmp_path / "m.txt"
    rows = [[rng.randrange(n) for _ in range(4)] for _ in range(4)]
    mat.write_text(f"ring: Z/{n}\nshape: 4 4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n",
                   encoding="utf-8")
    cert = tmp_path / "c.json"
    ring = f"Z/{n}"
    a, b, c = str(p * 3), str(rng.randrange(n)), str(rng.randrange(n))
    for argv in (
        ("reduce", "--matrix", str(mat), "--out", str(cert)),
        ("verify", "--matrix", str(mat), "--cert", str(cert)),
        ("lift", "--ring", ring, "--a", a, "--b", b, "--c", c),
        ("lift", "--ring", ring, "--a", a, "--b", b, "--c", c, "--sr2"),
        ("complete", "--ring", ring, "--row", f"{p},{q},{c}", "--det", "1"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv[0]
        assert code == 0 and err == "", argv[0]
    assert json.loads(out)["det"] == "1"

    # the pi-split takes its exponent from gcds, so n is not factored
    start = time.perf_counter()
    code, out, err = run(capsys, "split", "--ring", ring, "--a", a, "--b", b, "--pi")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    doc = json.loads(out)
    zn = ModularRing(n)
    r, s = (zn.from_int(int(doc[key])) for key in "rs")
    assert verify_adequate(zn.from_int(int(a)), zn.from_int(int(b)), r, s, doc["m"]).ok


def test_oversized_series_order_is_refused_before_parsing_elements(capsys, tmp_path):
    doc = {"kind": "completion-certificate", "ring": "Zser1000000000",
           "A": {"rows": [["{1;}", "{0;}"], ["{0;}", "{1;}"]]},
           "first_row": ["{1;}", "{0;}"], "det": "{1;}"}
    code, out, err = _verify_doc(capsys, tmp_path, doc)
    assert code == 2
    assert json.loads(out)["error"] == "ScaleExceeded"
    assert "Traceback" not in err


@pytest.mark.parametrize("predicate", ["JStableCondition", "StableRange1", "PmRing"])
def test_check_past_the_work_bound_is_refused_at_once(capsys, predicate):
    # N^q > 10^8 for these clauses on 9973 elements; the scan would not end
    start = time.monotonic()
    code, out, _ = run(capsys, "check", "--ring", "Z/9973", "--predicate", predicate)
    assert time.monotonic() - start < 1.0
    assert code == 2 and json.loads(out)["error"] == "ScaleExceeded"


@pytest.mark.parametrize(
    "predicate, largest, refused",
    [
        ("Clean", ["Z/10000"], "Z/10001"),
        ("StableRange1", ["Z/464"], "Z/465"),
        ("PmRing", ["Z/464"], "Z/465"),
        ("JStableCondition", ["Z/100", "prod(Z/4,Z/25)", "prod(Z/10,Z/10)"], "Z/101"),
    ],
)
def test_check_at_the_work_bound(capsys, predicate, largest, refused):
    # the largest rings with N^q <= 10^8 are scanned to the end; one more
    # element is refused
    for ring in largest:
        code, out, _ = run(capsys, "check", "--ring", ring, "--predicate", predicate)
        assert code == 0 and json.loads(out)["holds"] is True, ring
    code, out, _ = run(capsys, "check", "--ring", refused, "--predicate", predicate)
    assert code == 2 and json.loads(out)["error"] == "ScaleExceeded"


# psi_13 = P13 * Q13 passes every Miller-Rabin base is_prime uses; GF(p)[x]
# is refused from psi_13 up and accepted for the largest prime below it
P13, Q13 = 1287836182261, 2575672364521
PSI13 = P13 * Q13
BELOW_PSI13 = 3317044064679887385961813


def _gf_commands(tmp_path, p):
    ring = f"GF({p})[x]"
    mat = tmp_path / "gf.txt"
    mat.write_text(f"ring: {ring}\nshape: 2 2\n[{P13}] [1]\n[0] [{P13}]\n", encoding="utf-8")
    cert = {"kind": "reduction-certificate", "ring": ring, "detP": "[1]", "detQ": "[1]",
            **{key: {"rows": [["[1]", "[0]"], ["[0]", "[1]"]]} for key in "PDQ"}}
    cert_path = tmp_path / "gf.json"
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    return {
        "reduce": ("reduce", "--matrix", str(mat)),
        "lift": ("lift", "--ring", ring, "--a", f"[{P13}]", "--b", "[0,1]", "--c", "[1]"),
        "split": ("split", "--ring", ring, "--a", f"[{P13}]", "--b", f"[0,{Q13}]"),
        "complete": ("complete", "--ring", ring, "--row", f"[{P13}],[1]", "--det", "[1]"),
        "verify": ("verify", "--matrix", str(mat), "--cert", str(cert_path)),
    }


@pytest.mark.parametrize("command", ["reduce", "lift", "split", "complete", "verify"])
def test_gf_of_psi13_is_refused_and_the_prime_below_it_accepted(capsys, tmp_path, command):
    code, out, err = run(capsys, *_gf_commands(tmp_path, PSI13)[command])
    assert code == 2 and json.loads(out)["error"] == "ScaleExceeded"
    assert "Traceback" not in err
    code, out, _ = run(capsys, *_gf_commands(tmp_path, BELOW_PSI13)[command])
    doc = json.loads(out)
    # the hand-made certificate claims D = I, which P*A*Q does not give
    assert (code, doc.get("failures")) == ((2, ["PAQ=D"]) if command == "verify" else (0, None))


NINES = "9" * 5000


@pytest.mark.parametrize("ring", [f"Zser{NINES}", f"GF({NINES})[x]", f"Z/{NINES}"], ids=["Zser", "GF", "Zmod"])
def test_descriptors_past_the_digit_limit_are_refused_by_check(capsys, ring):
    start = time.monotonic()
    code, out, err = run(capsys, "check", "--ring", ring, "--predicate", "Clean")
    assert time.monotonic() - start < 1.0
    assert code == 2 and json.loads(out)["error"] == "ScaleExceeded"
    assert "Traceback" not in err


def test_commands_over_a_modulus_past_the_digit_limit(capsys, tmp_path):
    ring = f"Z/{NINES}"
    mat = tmp_path / "m.txt"
    mat.write_text(f"ring: {ring}\nshape: 2 2\n6 4\n{NINES[1:]} 10\n", encoding="utf-8")
    cert = tmp_path / "c.json"
    for argv in (
        ("reduce", "--matrix", str(mat), "--out", str(cert)),
        ("verify", "--matrix", str(mat), "--cert", str(cert)),
        ("lift", "--ring", ring, "--a", "2", "--b", "3", "--c", "5"),
        ("complete", "--ring", ring, "--row", "3,5", "--det", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv[0]
    assert json.loads(cert.read_text())["ring"] == ring
    assert json.loads(out)["ring"] == ring
    # adequate_split has no Z/n case; its refusal names the ring in full
    code, out, _ = run(capsys, "split", "--ring", ring, "--a", "6", "--b", "4")
    assert code == 2 and json.loads(out)["error"] == "UnsupportedRing"
    assert ring in json.loads(out)["message"]


@pytest.mark.parametrize("a", [f"{{{NINES};1}}", f"{{3;{NINES}/13}}"], ids=["constant", "coefficient"])
def test_series_split_past_the_digit_limit(capsys, a):
    code, out, err = run(capsys, "split", "--ring", "Zser2", "--a", a, "--b", "{2;0}")
    assert code == 0 and err == ""
    doc = json.loads(out)
    ring = parse_ring(doc["ring"])
    f, s, t = (parse_element(ring, doc[key]) for key in "fst")
    assert (doc["f"], doc["g"]) == (a, "{2;0}") and s * t == f


def _series_literal(rng, k):
    tail = ",".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(k - 1))
    return f"{{{rng.randint(-9, 9)};{tail}}}"


def test_series_certificates_are_refused_at_once(capsys, tmp_path):
    # verifying these took Berkowitz's O(n^4) series products: 10 s for the
    # 10x10 Zser32 completion certificate; no matrix exists over Zser now
    import random

    rng = random.Random(32)
    rows = [[_series_literal(rng, 32) for _ in range(10)] for _ in range(10)]
    completion = {"kind": "completion-certificate", "ring": "Zser32", "A": {"rows": rows},
                  "first_row": rows[0], "det": "{1;}"}
    reduction = {"kind": "reduction-certificate", "ring": "Zser32", "detP": "{1;}", "detQ": "{1;}",
                 **{key: {"rows": rows} for key in "PDQ"}}
    mat = tmp_path / "s.txt"
    mat.write_text("ring: Zser32\nshape: 10 10\n" + "\n".join(map(" ".join, rows)) + "\n", encoding="utf-8")
    for doc, extra in ((completion, ()), (reduction, ("--matrix", str(mat)))):
        start = time.monotonic()
        code, out, err = _verify_doc(capsys, tmp_path, doc, *extra)
        assert time.monotonic() - start < 1.0
        assert code == 2 and json.loads(out)["error"] == "UnsupportedRing"
        assert "Traceback" not in err
    code, out, _ = run(capsys, "reduce", "--matrix", str(mat))
    assert code == 2 and json.loads(out)["error"] == "UnsupportedRing"


def test_products_with_a_series_factor_are_unsupported(capsys, tmp_path):
    mat = tmp_path / "p.txt"
    mat.write_text("ring: prod(Z,Zser2)\nshape: 1 1\n(1,{1;0})\n", encoding="utf-8")
    ring = "prod(Z,Zser2)"
    for argv in (
        ("reduce", "--matrix", str(mat)),
        ("split", "--ring", ring, "--a", "(2,{1;0})", "--b", "(3,{1;0})", "--pi"),
        ("split", "--ring", ring, "--a", "(2,{1;0})", "--b", "(3,{1;0})"),
        ("lift", "--ring", ring, "--a", "(1,{1;0})", "--b", "(0,{0;})", "--c", "(0,{0;})"),
        ("complete", "--ring", ring, "--row", "(1,{1;0}),(0,{0;})", "--det", "(1,{1;0})"),
        ("check", "--ring", "prod(Z/2,Zser1)", "--predicate", "Clean"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and json.loads(out)["error"] == "UnsupportedRing", argv
        assert "Traceback" not in err


def _nest(depth, leaf="Z", head="prod"):
    """`depth` nested pairs of `leaf`: prod(prod(Z,Z),Z) at depth 2, and
    with head="" the literal ((2,2),2) of 2 in every component."""
    text = leaf
    for _ in range(depth):
        text = f"{head}({text},{leaf})"
    return text


def test_deeply_nested_products_are_refused(capsys):
    # at the bound the ring is read, and refused only as infinite
    code, out, err = run(capsys, "check", "--ring", _nest(_PRODUCT_DEPTH_BOUND), "--predicate", "Clean")
    assert code == 2 and json.loads(out)["error"] == "UnsupportedRing"
    for depth in (_PRODUCT_DEPTH_BOUND + 1, 300):
        code, out, err = run(capsys, "check", "--ring", _nest(depth), "--predicate", "Clean")
        assert code == 2 and json.loads(out)["error"] == "ScaleExceeded", depth
        assert "Traceback" not in err


@pytest.mark.parametrize("depth", [_PRODUCT_DEPTH_BOUND, _PRODUCT_DEPTH_BOUND + 1])
def test_every_command_answers_at_and_past_the_product_depth_bound(depth, tmp_path):
    ring, zero, one, two, three, five = [_nest(depth)] + [_nest(depth, v, "") for v in "01235"]
    (tmp_path / "m.txt").write_text(f"ring: {ring}\nshape: 2 2\n{two} {zero}\n{zero} {three}\n", encoding="utf-8")
    runs = [
        ["reduce", "--matrix", "m.txt", "--out", "c.json"],
        ["verify", "--matrix", "m.txt", "--cert", "c.json"],
        ["complete", "--ring", ring, "--row", f"{two},{three}", "--det", one],
        ["split", "--ring", ring, "--a", two, "--b", three],
        ["lift", "--ring", ring, "--a", two, "--b", three, "--c", five],
        ["check", "--ring", ring, "--predicate", "Clean"],
    ]
    for argv in runs:
        if argv[0] == "verify" and not (tmp_path / "c.json").exists():  # reduce refused the ring
            doc = {"kind": "reduction-certificate", "ring": ring, "P": {}, "D": {}, "Q": {}, "detP": "1", "detQ": "1"}
            (tmp_path / "c.json").write_text(json.dumps(doc), encoding="utf-8")
        code, doc = _one_document(argv, tmp_path)
        if depth > _PRODUCT_DEPTH_BOUND:
            assert doc.get("error") == "ScaleExceeded", argv[0]
        elif argv[0] in ("reduce", "verify"):
            assert code == 0, argv[0]  # the chain repair runs in every component


# ---------------------------------------------------------------------------
# property: whatever the descriptor, command and literals, one JSON object
# and a documented exit code


ERROR_CODES = {
    cls.code for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.EdrError)
} - {"EdrError"} | {"UsageError", "IOError"}
EXIT_1_CODES = {"UsageError", "ParseError", "IOError"}

# descriptor specs (kind, text); the kind picks the literal grammar
LEAF_RINGS = [("int", "Z"), ("int", "Z/12"), ("int", f"Z/{NINES}"), ("ser", "Zser3")] + [
    ("gf", f"GF({p})[x]") for p in (5, 2**61 - 1, BELOW_PSI13, PSI13)
]
RING_SPECS = st.recursive(
    st.sampled_from(LEAF_RINGS), lambda kids: st.lists(kids, min_size=2, max_size=3).map(lambda fs: ("prod", fs)),
    max_leaves=4,
)
SMALL = [0, 1, 2, 3, 4, 6, -5, 12, P13, Q13]


def _ring_text(spec):
    kind, body = spec
    return "prod(" + ",".join(map(_ring_text, body)) + ")" if kind == "prod" else body


def _literals(spec):
    kind, body = spec
    ints = st.sampled_from(SMALL)
    if kind == "int":
        return ints.map(str)
    if kind == "gf":
        return st.lists(ints.map(abs), max_size=3).map(lambda cs: "[" + ",".join(map(str, cs)) + "]")
    if kind == "ser":
        z0 = st.sampled_from([*map(str, SMALL), NINES])
        return st.tuples(z0, st.sampled_from(["", "1/2", "0,-3", f"{NINES}/7"])).map(lambda t: f"{{{t[0]};{t[1]}}}")
    return st.tuples(*map(_literals, body)).map(lambda parts: "(" + ",".join(parts) + ")")


@st.composite
def cli_runs(draw):
    """(argv of the first run, a follow-up verify argv or None, files to
    write); the file names stand for paths in a fresh directory."""
    spec = draw(RING_SPECS)
    ring, lit = _ring_text(spec), _literals(spec)
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [" ".join(draw(lit) for _ in range(n)) for _ in range(m)]
    files = {"m.txt": f"ring: {ring}\nshape: {m} {n}\n" + "\n".join(rows) + "\n"}
    follow_up = None
    command = draw(st.sampled_from(["reduce", "complete", "split", "lift", "check", "verify"]))
    if command == "reduce":
        argv = ["reduce", "--matrix", "m.txt", "--out", "c.json"]
        follow_up = ["verify", "--matrix", "m.txt", "--cert", "c.json"]
    elif command == "complete":
        row = ",".join(draw(lit) for _ in range(draw(st.integers(2, 4))))
        argv = ["complete", "--ring", ring, "--row", row, "--det", draw(lit), "--out", "c.json"]
        follow_up = ["verify", "--cert", "c.json"]
    elif command == "split":
        argv = ["split", "--ring", ring, "--a", draw(lit), "--b", draw(lit)] + draw(st.sampled_from([[], ["--pi"]]))
    elif command == "lift":
        argv = ["lift", "--ring", ring, "--a", draw(lit), "--b", draw(lit), "--c", draw(lit)]
        argv += draw(st.sampled_from([[], ["--sr2"]]))
    elif command == "check":
        argv = ["check", "--ring", ring, "--predicate", draw(st.sampled_from(PREDICATES))]
    else:  # a certificate written by hand: a square matrix claimed as its own completion
        k = draw(st.integers(1, 4))
        square = [[draw(lit) for _ in range(k)] for _ in range(k)]
        files["c.json"] = json.dumps({"kind": "completion-certificate", "ring": ring, "A": {"rows": square},
                                      "first_row": square[0], "det": draw(lit)})
        argv = ["verify", "--cert", "c.json"]
    return argv, follow_up, files


def _one_document(argv, cwd):
    argv = [str(cwd / a) if a in ("m.txt", "c.json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if "--out" in argv and code == 0:
        assert text == ""
        text = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
    doc = json.loads(text)  # exactly one JSON value, or this raises
    assert isinstance(doc, dict) and code in (0, 1, 2), (argv, code, text[:200])
    assert "Traceback" not in err.getvalue()
    if "error" in doc:
        assert doc["error"] in ERROR_CODES, doc["error"]
        assert code == (1 if doc["error"] in EXIT_1_CODES else 2), (doc["error"], code)
    elif doc.get("kind") == "verification-report":
        assert code == (0 if doc["ok"] else 2)
    else:
        assert code == 0
    return code, doc


@settings(max_examples=150, deadline=3000)
@given(case=cli_runs())
def test_every_cli_run_prints_one_json_object_and_a_documented_exit_code(case):
    argv, follow_up, files = case
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for name, text in files.items():
            (cwd / name).write_text(text, encoding="utf-8")
        if _one_document(argv, cwd)[0] == 0 and follow_up:
            assert _one_document(follow_up, cwd)[0] == 0  # what edr writes, edr verifies


# ---------------------------------------------------------------------------
# the option table against argparse: edr's former argparse parser
# (oracles._build_parser) reads each argv to the same namespace, or both
# refuse it; for argv with one fault the messages are byte-equal


ARGPARSE = _build_parser()
COMMANDS = ("reduce", "complete", "split", "lift", "check", "verify")
# each command's required options in the order argparse lists them, and its flags
REQUIRED_OPTIONS = {
    "reduce": (), "complete": ("--row", "--det"), "split": ("--a", "--b"),
    "lift": ("--a", "--b", "--c"), "check": ("--predicate",), "verify": ("--cert",),
}
FLAGS = {"split": ("--pi",), "lift": ("--sr2",)}
COMMON_OPTIONS = ("--ring", "--matrix", "--out", "--seed")
EVERY_OPTION = COMMON_OPTIONS + ("--row", "--det", "--a", "--b", "--c", "--pi", "--sr2", "--predicate", "--cert")
# first the values argparse reads in its own ways: negative numbers,
# option-like text, "-" alone, a leading space, the empty string, an "=",
# Unicode digits
VALUES = ("-5", "-1.5", "-4,6", "-", " -x", "", "1=2", "٣", "-٣", "١٢", "7", "x", "Z", "3,5", "m.txt") + PREDICATES
STRAYS = ("x", "7", "--bogus", "-x", "-4,6", "1=2", "--bogus=1")


def _read(parse, argv):
    try:
        return "accepted", vars(parse(argv))
    except cli._UsageError as exc:
        return "refused", str(exc)


def _table(argv):
    return _read(cli._parse, argv)


def _argparse(argv):
    return _read(ARGPARSE.parse_args, argv)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _spellings(name):
    """The option itself and each longer-than-"--" prefix of it."""
    return st.integers(3, len(name)).map(lambda k: name[:k])


@st.composite
def _groups(draw, command):
    """One token group per option of `command`: each required option, some
    of the others, in any order, any spelling, "=" or a separate value."""
    names = list(REQUIRED_OPTIONS.get(command, ()))
    names += draw(st.lists(st.sampled_from(COMMON_OPTIONS + FLAGS.get(command, ())), max_size=3))
    groups = []
    for name in draw(st.permutations(names)):
        spelled = draw(_spellings(name))
        if name in FLAGS.get(command, ()):
            groups.append([spelled])
            continue
        value = draw(st.sampled_from(VALUES))
        groups.append([f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value])
    return groups


TOKENS = st.one_of(
    st.sampled_from(COMMANDS + ("bogus",)),
    st.sampled_from(EVERY_OPTION).flatmap(_spellings),
    st.sampled_from(VALUES),
    st.tuples(st.sampled_from(EVERY_OPTION).flatmap(_spellings), st.sampled_from(VALUES)).map("=".join),
)


@st.composite
def _argvs(draw):
    """An argv built like a valid call, then bent: tokens inserted, dropped
    or repeated anywhere."""
    command = draw(st.sampled_from(COMMANDS + ("bogus",)))
    argv = [command, *(token for group in draw(_groups(command)) for token in group)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "drop", "repeat"]))
        if edit == "insert":
            argv.insert(at, draw(TOKENS))
        elif argv and at < len(argv):
            argv[at:at + 1] = [] if edit == "drop" else [argv[at]] * 2
    return argv


@settings(max_examples=600, deadline=None)
@given(argv=_argvs())
def test_the_option_table_reads_argv_as_argparse_did(argv):
    ours, theirs = _table(argv), _argparse(argv)
    assert ours[0] == theirs[0], (argv, ours, theirs)
    if ours[0] == "accepted":
        assert ours == theirs, argv
    else:
        code, out, err = _main(argv)
        assert (code, json.loads(out), err) == (1, {"error": "UsageError", "message": ours[1]}, f"edr: {ours[1]}\n")


def _valid_value(name, draw):
    if name == "--seed":
        return draw(st.sampled_from(("7", "-5", "٣", "-٣")))
    if name == "--predicate":
        return draw(st.sampled_from(PREDICATES))
    return draw(st.sampled_from(VALUES).filter(lambda v: v != "-4,6"))  # "-4,6" only after "="


def _unique_spellings(name, command):
    """The option and each prefix of it that no other option of `command`
    (nor --help) shares."""
    others = {"--help", *COMMON_OPTIONS, *REQUIRED_OPTIONS[command], *FLAGS.get(command, ())} - {name}
    return st.sampled_from([name[:k] for k in range(3, len(name) + 1)
                            if not any(other.startswith(name[:k]) for other in others)])


@st.composite
def _one_fault_argvs(draw):
    """(family, argv): a valid call with exactly one fault of one family."""
    family = draw(st.sampled_from(["required", "command", "unrecognized", "expected", "ambiguous", "choice", "int"]))
    command = draw(st.sampled_from({"ambiguous": ("complete", "lift"), "choice": ("check",), "required": COMMANDS[1:]}
                                   .get(family, COMMANDS)))
    names = list(REQUIRED_OPTIONS[command]) + draw(st.lists(st.sampled_from(COMMON_OPTIONS), max_size=2, unique=True))
    if command in FLAGS:
        names += draw(st.lists(st.sampled_from(FLAGS[command]), max_size=1))
    if family == "int" and "--seed" not in names:
        names.append("--seed")
    if family == "expected":
        names.append(draw(st.sampled_from(COMMON_OPTIONS)))
    if family == "ambiguous":
        names.append({"complete": "--r", "lift": "--s"}[command])
    names = draw(st.permutations(names))
    if family == "required":
        missing = draw(st.lists(st.sampled_from(REQUIRED_OPTIONS[command]), min_size=1, unique=True))
        names = [name for name in names if name not in missing]
    valued = [name for name in names if name not in FLAGS.get(command, ())]
    faulted = draw(st.sampled_from(valued)) if family == "expected" else None
    spelling = lambda name: _unique_spellings(name, command) if name in EVERY_OPTION else st.just(name)  # noqa: E731
    groups = []
    for name in names:
        if name in FLAGS.get(command, ()):
            groups.append([name])
            continue
        value = _valid_value(name, draw)
        if name == "--seed" and family == "int":
            value = draw(st.sampled_from(("x", "1.5", "-1.5", "", "1=2", " -x", "7x")))
        if name == "--predicate" and family == "choice":
            value = draw(st.sampled_from(("Bogus", "stablerange1", "x", "7", "", "٣")))
        if name == faulted:
            groups.append(draw(st.sampled_from([[name], [name, "-4,6"]])))
        elif draw(st.booleans()):
            groups.append([f"{draw(spelling(name))}={value}"])
        else:
            groups.append([draw(spelling(name)), value])
    if family == "command":
        command = draw(st.sampled_from(("bogus", "reduc", "Reduce", "x", "-5", "")))
    if family == "unrecognized":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(groups)))
            groups.insert(at, [draw(st.sampled_from(STRAYS))])
        if draw(st.booleans()):
            return family, [draw(st.sampled_from(("--bogus", "-x", "-4,6"))), command, *sum(groups, [])]
    return family, [command, *sum(groups, [])]


ONE_FAULT_MESSAGES = {
    "required": "the following arguments are required: ",
    "command": "argument command: invalid choice: ",
    "unrecognized": "unrecognized arguments: ",
    "expected": ": expected one argument",
    "ambiguous": "ambiguous option: ",
    "choice": "argument --predicate: invalid choice: ",
    "int": "argument --seed: invalid int value: ",
}


@settings(max_examples=500, deadline=None)
@given(case=_one_fault_argvs())
def test_one_fault_messages_are_argparses(case):
    family, argv = case
    theirs = _argparse(argv)
    assert theirs[0] == "refused" and ONE_FAULT_MESSAGES[family] in theirs[1], (family, argv, theirs)
    assert _table(argv) == theirs, argv
    assert _main(argv) == (1, serialize.dumps({"error": "UsageError", "message": theirs[1]}), f"edr: {theirs[1]}\n")


def test_double_dash_is_an_unrecognized_argument(matrix_file):
    # argparse read what follows "--" as positionals, and so refused it as
    # well, except as the text of an "=" value: --a=-- gave the value []
    # before Python 3.13 and gives "--" from 3.13 on; the table keeps "--"
    argv = ["reduce", "--matrix", matrix_file, "--"]
    assert _table(argv) == ("refused", "unrecognized arguments: --")
    assert _main(argv)[0] == 1
    assert _table(["split", "--ring", "Z", "--b", "1", "--a", "--", "5"]) == (
        "refused", "argument --a: expected one argument")
    argv = ["split", "--ring", "Z", "--b", "1", "--a=--"]
    assert _table(argv)[1]["a"] == "--"
    assert _argparse(argv)[1]["a"] == ([] if sys.version_info < (3, 13) else "--")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["reduce", "-h"], ["split", "--help"]])
def test_help_prints_the_usage_and_returns_0(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "edr.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert _main(argv) == (proc.returncode, proc.stdout, proc.stderr) == (0, proc.stdout, "")
    names = COMMANDS + EVERY_OPTION if len(argv) == 1 else (argv[0], *REQUIRED_OPTIONS[argv[0]], *COMMON_OPTIONS)
    for name in names:
        assert name in proc.stdout, name
    if len(argv) == 1:
        assert "{" + ",".join(PREDICATES) + "}" in proc.stdout
        assert proc.stdout.count("(required)") == sum(map(len, REQUIRED_OPTIONS.values()))
