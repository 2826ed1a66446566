import json
import time

import pytest

from edr.cli import main

MATRIX = "ring: Z\nshape: 2 2\n2 4\n6 8\n"


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


def test_reduce_ring_mismatch(capsys, matrix_file):
    code, out, _ = run(capsys, "reduce", "--ring", "Z/12", "--matrix", matrix_file)
    assert code == 2
    assert json.loads(out)["error"] == "DescriptorMismatch"


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

    # the pi-split needs the largest prime exponent of n: refused, not hung
    start = time.perf_counter()
    code, out, _ = run(capsys, "split", "--ring", ring, "--a", a, "--b", b, "--pi")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and json.loads(out)["error"] == "ScaleExceeded"


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
