"""Command-line front end.

Exit codes: 0 on success, 1 on parse/usage errors, 2 when a library
precondition fails (the error object names the stable code). The result
document goes to standard output (or --out); diagnostics go to standard
error. Equal input bytes always produce equal output bytes; --seed is
accepted for harness reproducibility and deliberately unused, since nothing
in the core is randomized.

The command line is read against one table: each command's own options
(_COMMANDS) and the four that every command takes (_COMMON), each one
required, valued or a flag. One walk over argv fills a fresh namespace, so
in-process calls share no state. The rules, namespace and messages are
those of argparse, which edr used before: a value is the next argument, or
follows "=" (--a=-4,6); a next argument that reads as an option (a "-"
that is not alone, a negative number or text with a space) is not taken as
a value; a unique prefix stands for an option name; the last of repeated
values wins; an absent option is None, an absent flag False; --seed is an
int. Anything else, "--" included, is an unrecognized argument. -h or
--help prints a usage text built from the table and returns 0.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from . import checkers, complete, reduce, serialize
from .adequate import adequate_split, pi_adequate_split_zn, series_adequate_split
from .errors import DescriptorMismatch, EdrError, ParseError
from .parsing import element_to_str, parse_element, parse_ring, parse_row, ring_to_str, split_top_level
from .rings import ModularRing, RingElement, TruncatedSeriesRing


class _UsageError(Exception):
    pass


# option -> (kind, help), in argparse's order; a kind is "required", "value" or "flag"
_HELP = {"-h": ("flag", "print this text and exit"), "--help": ("flag", "print this text and exit")}
_COMMON = {
    "--ring": ("value", "ring descriptor, e.g. Z, Z/12, GF(5)[x], Zser8, prod(Z,Z)"),
    "--matrix": ("value", "matrix file (text format with ring/shape header)"),
    "--out": ("value", "write the result document here instead of stdout"),
    "--seed": ("value", "reserved for reproducible harnesses; unused"),
}
_ELEMENT = ("required", "element literal")
_COMMANDS = {
    "reduce": ("diagonal reduction certificate for a matrix", {}),
    "complete": ("complete a row to a prescribed determinant", {
        "--row": ("required", "comma-separated element literals"), "--det": ("required", "target determinant literal")}),
    "split": ("adequate factorization of a against b", {
        "--a": _ELEMENT, "--b": _ELEMENT, "--pi": ("flag", "power split through idempotents (Z/n)")}),
    "lift": ("stable-range lift for a unimodular triple", {
        "--a": _ELEMENT, "--b": _ELEMENT, "--c": _ELEMENT,
        "--sr2": ("flag", "reduce the triple to a unimodular pair instead")}),
    "check": ("exhaustive predicate check on a finite ring", {"--predicate": ("required", "the predicate to check")}),
    "verify": ("verify an externally supplied certificate", {"--cert": ("required", "certificate JSON file")}),
}
_OPTIONS = {command: {**_HELP, **_COMMON, **own} for command, (_, own) in _COMMANDS.items()}
_DEFAULTS = {command: {name[2:]: False if kind == "flag" else None for name, (kind, _) in {**_COMMON, **own}.items()}
             for command, (_, own) in _COMMANDS.items()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(token, options):
    """How argparse reads `token` against `options`: None for a value, else
    (option name, the text after "=" or None), the name "" matching none."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in options:
        return head, value
    if token.startswith("--") and token != "--":
        found = [name for name in options if name.startswith(head)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def _parse(argv):
    """The namespace for argv, or the usage text when it asks for -h/--help.
    Before the command only -h/--help are options."""
    args = SimpleNamespace(command=None)
    options, extras, i = _HELP, [], 0
    while i < len(argv):
        token = argv[i]
        i += 1
        read = _option(token, options)
        if read is None and args.command is None:
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise _UsageError(f"argument command: invalid choice: {token!r} (choose from {choices})")
            args.command, options = token, _OPTIONS[token]
            vars(args).update(_DEFAULTS[token])
            continue
        if read is None or not read[0]:
            extras.append(token)
            continue
        name, value = read
        if options[name][0] == "flag":
            if value is not None:
                shown = "-h/--help" if name in _HELP else name
                raise _UsageError(f"argument {shown}: ignored explicit argument {value!r}")
            if name in _HELP:
                return _usage(args.command)
            setattr(args, name[2:], True)
            continue
        if value is None:
            if i == len(argv) or _option(argv[i], options) is not None:
                raise _UsageError(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        if name == "--seed":
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument --seed: invalid int value: {value!r}") from None
        elif name == "--predicate" and value not in checkers.PREDICATES:
            choices = ", ".join(map(repr, checkers.PREDICATES))
            raise _UsageError(f"argument --predicate: invalid choice: {value!r} (choose from {choices})")
        setattr(args, name[2:], value)
    if args.command is None:
        raise _UsageError("the following arguments are required: command")
    missing = [name for name, (kind, _) in _COMMANDS[args.command][1].items()
               if kind == "required" and getattr(args, name[2:]) is None]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    return args


def _usage(command=None) -> str:
    """The -h text of one command, or of edr and every command."""
    def shown(name, kind):
        if kind == "flag":
            return name
        return f"{name} " + ("{" + ",".join(checkers.PREDICATES) + "}" if name == "--predicate" else name[2:].upper())

    def rows(options):
        for name, (kind, text) in options.items():
            cell, text = shown(name, kind), text + " (required)" * (kind == "required")
            yield f"  {cell:<17}  {text}" if len(cell) <= 17 else f"  {cell}\n{'':21}{text}"

    lines = [] if command else ["usage: edr <command> [options]", "", "exact diagonal reduction toolkit"]
    for name in [command] if command else _COMMANDS:
        about, own = _COMMANDS[name]
        call = [shown(o, kind) if kind == "required" else f"[{shown(o, kind)}]" for o, (kind, _) in own.items()]
        lines += ["", " ".join(["usage: edr" if command else "edr", name, *call, "[options]"]), f"  {about}", *rows(own)]
    lines += ["", "options of every command:", *rows({"-h, --help": _HELP["--help"], **_COMMON}), "",
              'A value follows its option or comes after "=" (--a=-4,6); use "=" for a',
              'value that starts with "-" and is not a number. A unique prefix of an',
              "option name stands for it (--pred for --predicate)."]
    return "\n".join(lines).lstrip("\n") + "\n"


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
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h / --help
            sys.stdout.write(args)
            return 0
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
