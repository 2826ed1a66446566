"""Per-layer spans and counts, installed around edr from the benchmark side.

`Tracer.install` swaps each named edr function or method for a wrapper and
`uninstall` puts the originals back; nothing inside edr changes. A module
function is replaced under every edr module name that refers to it, so
`from .rings import gcd_bezout` call sites are covered too.

Each wrapper counts the call and keeps a span stack: a span's self time is
its duration minus the time of the spans it called, and a group's total
time is taken at its outermost active span only, so recursion (product and
residue rings re-enter `diagonal_reduce`) is not counted twice. RingElement
arithmetic is only counted: timing every `+` would swamp what it measures.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# span group -> (module, attribute path) of every callable it covers
SPANS = {
    "matrices.det": [("edr.matrices", "RingMatrix.det")],
    "matrices.matmul": [("edr.matrices", "RingMatrix.__mul__")],
    "reduce.diagonal_reduce": [("edr.reduce", "diagonal_reduce")],
    "reduce.verify_reduction": [("edr.reduce", "verify_reduction")],
    "rings.gcd_bezout": [("edr.rings", "gcd_bezout")],
    "rings.divide_exact": [("edr.rings", "divide_exact")],
    "rings.canonical_associate": [("edr.rings", "canonical_associate")],
    "rings.factorize": [("edr.rings", "factorize")],
    "checkers.scan": [("edr.checkers", "check_finite_predicate")],
    "adequate.split": [
        ("edr.adequate", "adequate_split"),
        ("edr.adequate", "pi_adequate_split_zn"),
        ("edr.adequate", "series_adequate_split"),
    ],
    "complete.complete_row": [("edr.complete", "complete_row")],
    "complete.lift": [("edr.complete", "sr1_quotient_lift"), ("edr.complete", "sr2_reduce")],
    "parsing.parse": [
        ("edr.parsing", "parse_ring"),
        ("edr.parsing", "parse_element"),
        ("edr.parsing", "split_top_level"),
    ],
    "serialize.dump": [
        ("edr.serialize", name)
        for name in (
            "dumps",
            "matrix_to_text",
            "matrix_to_doc",
            "reduction_certificate_to_doc",
            "completion_certificate_to_doc",
            "predicate_report_to_doc",
            "check_report_to_doc",
        )
    ],
    "cli": [("edr.cli", "main")],
}

# RingElement + - * and unary minus, reflected forms included
ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")

# spans whose return values the per-layer metrics read after the round
KEEP_RESULTS = ("reduce.diagonal_reduce", "checkers.scan")


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.raised = Counter()
        self.results = defaultdict(list)
        self._active = Counter()
        self._stack = []
        self._undo = []

    def _span(self, key, fn):
        clock = time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        active, stack, raised = self._active, self._stack, self.raised
        keep = self.results[key].append if key in KEEP_RESULTS else None

        def wrapper(*args, **kwargs):
            calls[key] += 1
            active[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                raised[key, type(exc).__name__] += 1
                raise
            finally:
                dt = clock() - t0
                self_time[key] += dt - stack.pop()
                active[key] -= 1
                if not active[key]:
                    total[key] += dt
                if stack:
                    stack[-1] += dt
            if keep is not None and not active[key]:
                keep(out)
            return out

        return wrapper

    def _count(self, fn):
        calls = self.calls

        def wrapper(*args):
            calls["rings.element_ops"] += 1
            return fn(*args)

        return wrapper

    def _swap(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        edr_modules = [m for name, m in sys.modules.items() if name == "edr" or name.startswith("edr.")]
        for key, targets in SPANS.items():
            for module, path in targets:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                wrapper = self._span(key, original)
                if isinstance(owner, type):
                    self._swap(owner, attr, wrapper)
                    continue
                for mod in edr_modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, name, wrapper)
        element = sys.modules["edr.rings"].RingElement
        for attr in ELEMENT_OPS:
            self._swap(element, attr, self._count(getattr(element, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _bits(e):
    p = e.payload
    if isinstance(p, int):
        return abs(p).bit_length()
    if p and not isinstance(p[0], int):  # product: component elements
        return max(_bits(c) for c in p)
    return max((abs(c).bit_length() for c in p), default=0)


def cert_max_bits(certs):
    """Largest entry of P, D or Q in bits (coefficients for polynomials,
    components for products)."""
    return max(
        (_bits(e) for cert in certs for M in (cert.P, cert.D, cert.Q) for row in M.entries for e in row),
        default=0,
    )


# per-layer metric -> (unit, value from a finished Tracer)
LAYER_METRICS = {
    "matrices.det_calls": ("count", lambda t: t.calls["matrices.det"]),
    "matrices.det_s": ("s", lambda t: t.total["matrices.det"]),
    "matrices.matmul_calls": ("count", lambda t: t.calls["matrices.matmul"]),
    "matrices.matmul_s": ("s", lambda t: t.total["matrices.matmul"]),
    "reduce.diagonal_reduce_self_s": ("s", lambda t: t.self_time["reduce.diagonal_reduce"]),
    "reduce.verify_reduction_self_s": ("s", lambda t: t.self_time["reduce.verify_reduction"]),
    "reduce.cert_max_bits": ("bits", lambda t: cert_max_bits(t.results["reduce.diagonal_reduce"])),
    "rings.gcd_bezout_calls": ("count", lambda t: t.calls["rings.gcd_bezout"]),
    "rings.gcd_bezout_s": ("s", lambda t: t.total["rings.gcd_bezout"]),
    "rings.divide_exact_calls": ("count", lambda t: t.calls["rings.divide_exact"]),
    "rings.not_divisible_raised": ("count", lambda t: t.raised["rings.divide_exact", "NotDivisible"]),
    "rings.canonical_associate_calls": ("count", lambda t: t.calls["rings.canonical_associate"]),
    "rings.factorize_calls": ("count", lambda t: t.calls["rings.factorize"]),
    "rings.factorize_s": ("s", lambda t: t.total["rings.factorize"]),
    "rings.element_ops": ("count", lambda t: t.calls["rings.element_ops"]),
    "checkers.scan_s": ("s", lambda t: t.total["checkers.scan"]),
    "checkers.elements_scanned": (
        "count",
        lambda t: sum(r.elements_scanned for r in t.results["checkers.scan"]),
    ),
    "adequate.split_calls": ("count", lambda t: t.calls["adequate.split"]),
    "adequate.split_s": ("s", lambda t: t.total["adequate.split"]),
    "complete.complete_row_s": ("s", lambda t: t.total["complete.complete_row"]),
    "complete.lift_s": ("s", lambda t: t.total["complete.lift"]),
    "parsing.parse_s": ("s", lambda t: t.total["parsing.parse"]),
    "serialize.dump_s": ("s", lambda t: t.total["serialize.dump"]),
    "cli.self_s": ("s", lambda t: t.self_time["cli"]),
}
