"""Command-line front end.

Exit codes: 0 on success, 1 on parse/usage errors, 2 when a library
precondition fails (the error object names the stable code). The result
document goes to standard output (or --out); diagnostics go to standard
error. Equal input bytes always produce equal output bytes; --seed is
accepted for harness reproducibility and deliberately unused, since nothing
in the core is randomized.

The argument parser is built once, when this module is imported; each
main() call only runs parse_args on it, which parses into a fresh namespace,
so in-process calls share no state.
"""

from __future__ import annotations

import argparse
import sys

from . import checkers, complete, reduce, serialize
from .adequate import adequate_split, pi_adequate_split_zn, series_adequate_split
from .errors import DescriptorMismatch, EdrError, ParseError
from .parsing import element_to_str, parse_element, parse_ring, parse_row, ring_to_str, split_top_level
from .rings import ModularRing, RingElement, TruncatedSeriesRing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we want 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="edr", description="exact diagonal reduction toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", help="ring descriptor, e.g. Z, Z/12, GF(5)[x], Zser8, prod(Z,Z)")
    common.add_argument("--matrix", help="matrix file (text format with ring/shape header)")
    common.add_argument("--out", help="write the result document here instead of stdout")
    common.add_argument("--seed", type=int, help="reserved for reproducible harnesses; unused")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reduce", parents=[common], help="diagonal reduction certificate for a matrix")

    p = sub.add_parser("complete", parents=[common], help="complete a row to a prescribed determinant")
    p.add_argument("--row", required=True, help="comma-separated element literals")
    p.add_argument("--det", required=True, help="target determinant literal")

    p = sub.add_parser("split", parents=[common], help="adequate factorization of a against b")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--pi", action="store_true", help="power split through idempotents (Z/n)")

    p = sub.add_parser("lift", parents=[common], help="stable-range lift for a unimodular triple")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--sr2", action="store_true", help="reduce the triple to a unimodular pair instead")

    p = sub.add_parser("check", parents=[common], help="exhaustive predicate check on a finite ring")
    p.add_argument("--predicate", required=True, choices=checkers.PREDICATES)

    p = sub.add_parser("verify", parents=[common], help="verify an externally supplied certificate")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    return parser


_PARSER = _build_parser()
# kinds of document edr writes that verify does not read
_UNVERIFIED_KINDS = ("adequate-split", "series-split", "lift", "predicate-report", "verification-report")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text", exc.start) from exc


def _load_matrix(args):
    if not args.matrix:
        raise _UsageError("this command needs --matrix")
    M = serialize.matrix_from_text(_read_text(args.matrix))
    if args.ring:
        declared = parse_ring(args.ring)
        if declared != M.ring:
            raise DescriptorMismatch(
                f"--ring says {ring_to_str(declared)} but the matrix file says {ring_to_str(M.ring)}"
            )
    return M


def _need_ring(args):
    if not args.ring:
        raise _UsageError("this command needs --ring")
    return parse_ring(args.ring)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> int:
    if args.command == "reduce":
        M = _load_matrix(args)
        cert = reduce.diagonal_reduce(M)
        _emit(args, serialize.dumps(serialize.reduction_certificate_to_doc(M.ring, cert)))
        return 0

    if args.command == "complete":
        ring = _need_ring(args)
        row = [RingElement(ring, v) for v in parse_row(ring, split_top_level(args.row))]
        det = parse_element(ring, args.det)
        cert = complete.complete_row(row, det)
        _emit(args, serialize.dumps(serialize.completion_certificate_to_doc(ring, cert)))
        return 0

    if args.command == "split":
        ring = _need_ring(args)
        a = parse_element(ring, args.a)
        b = parse_element(ring, args.b)
        if args.pi and not isinstance(ring, ModularRing):
            raise _UsageError("--pi needs a Z/<n> ring")
        if isinstance(ring, TruncatedSeriesRing):
            s_el, t_el = series_adequate_split(a, b)
            doc = {
                "kind": "series-split",
                "ring": ring_to_str(ring),
                "f": element_to_str(a),
                "g": element_to_str(b),
                "s": element_to_str(s_el),
                "t": element_to_str(t_el),
            }
        else:
            split = pi_adequate_split_zn(a, b) if args.pi else adequate_split(a, b)
            doc = {
                "kind": "adequate-split",
                "ring": ring_to_str(ring),
                "a": element_to_str(a),
                "b": element_to_str(b),
                "m": split.m,
                "r": element_to_str(split.r),
                "s": element_to_str(split.s),
                "witness": {
                    "g": element_to_str(split.witness.g),
                    "x": element_to_str(split.witness.x),
                    "y": element_to_str(split.witness.y),
                    "a1": element_to_str(split.witness.a1),
                    "b1": element_to_str(split.witness.b1),
                },
            }
        _emit(args, serialize.dumps(doc))
        return 0

    if args.command == "lift":
        ring = _need_ring(args)
        a = parse_element(ring, args.a)
        b = parse_element(ring, args.b)
        c = parse_element(ring, args.c)
        doc = {
            "kind": "lift",
            "ring": ring_to_str(ring),
            "mode": "sr2" if args.sr2 else "sr1",
            "a": element_to_str(a),
            "b": element_to_str(b),
            "c": element_to_str(c),
        }
        if args.sr2:
            doc["y1"], doc["y2"] = map(element_to_str, complete.sr2_reduce(a, b, c))
        else:
            doc["y"] = element_to_str(complete.sr1_quotient_lift(a, b, c))
        _emit(args, serialize.dumps(doc))
        return 0

    if args.command == "check":
        ring = _need_ring(args)
        report = checkers.check_finite_predicate(ring, args.predicate)
        _emit(args, serialize.dumps(serialize.predicate_report_to_doc(ring, report)))
        return 0

    if args.command == "verify":
        import json

        text = _read_text(args.cert)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"certificate is not valid JSON: {exc}", exc.pos) from exc
        except (ValueError, RecursionError) as exc:  # over-long number, deep nesting
            raise ParseError(f"certificate is not usable JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError("a certificate document must be a JSON object")
        kind = doc.get("kind")
        if kind in _UNVERIFIED_KINDS:
            raise ParseError(f"{kind!r} is not a certificate: verify reads reduction and completion certificates")
        if kind == "completion-certificate" or ("A" in doc and "first_row" in doc):
            ring, cert = serialize.completion_certificate_from_doc(doc)
            report = complete.verify_completion(cert)
        else:
            ring, cert = serialize.reduction_certificate_from_doc(doc)
            M = _load_matrix(args)
            if M.ring != ring:
                raise DescriptorMismatch("matrix and certificate rings differ")
            report = reduce.verify_reduction(M, cert)
        _emit(args, serialize.dumps(serialize.check_report_to_doc(report)))
        return 0 if report.ok else 2

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        sys.stdout.write(serialize.dumps({"error": "UsageError", "message": str(exc)}))
        print(f"edr: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        sys.stdout.write(
            serialize.dumps(
                {"error": exc.code, "message": exc.message, "position": exc.position}
            )
        )
        print(f"edr: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        sys.stdout.write(serialize.dumps({"error": "IOError", "message": str(exc)}))
        print(f"edr: {exc}", file=sys.stderr)
        return 1
    except EdrError as exc:
        sys.stdout.write(serialize.dumps({"error": exc.code, "message": exc.message}))
        print(f"edr: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
