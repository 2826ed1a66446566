"""Seeded inputs and fixed task lists for the benchmark workloads.

Every workload is built from `--seed` alone and holds a fixed list of tasks.
A task is one certified reduction, one in-process `edr` invocation or one
predicate check. `run` does the work that is timed; `check` inspects the
output afterwards, untimed, against computations made apart from `edr`
(see `checks.py`). The program under test only ever receives the generated
inputs.

edr callables are looked up through their modules at call time, so the
wrappers that `tracing.py` installs see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from edr import checkers as edr_checkers
from edr import cli as edr_cli
from edr import reduce as edr_reduce
from edr import serialize as edr_serialize
from edr.matrices import RingMatrix
from edr.rings import IntegerRing, ModularRing, PrimeFieldPolynomialRing, ProductRing

import checks


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# ring specs: plain tuples the generator and the checks share, never edr
# objects, so a check cannot lean on the code it audits

Z = ("Z",)


def zn(n):
    return ("Zn", n)


def gf(p):
    return ("GF", p)


def prod(*factors):
    return ("prod", tuple(factors))


def spec_str(spec):
    kind = spec[0]
    if kind == "Z":
        return "Z"
    if kind == "Zn":
        return f"Z/{spec[1]}"
    if kind == "GF":
        return f"GF({spec[1]})[x]"
    if kind == "Zser":
        return f"Zser{spec[1]}"
    return "prod(" + ",".join(spec_str(f) for f in spec[1]) + ")"


def edr_ring(spec):
    kind = spec[0]
    if kind == "Z":
        return IntegerRing()
    if kind == "Zn":
        return ModularRing(spec[1])
    if kind == "GF":
        return PrimeFieldPolynomialRing(spec[1])
    return ProductRing([edr_ring(f) for f in spec[1]])


def literal(spec, v):
    """Element literal in the documented grammar."""
    kind = spec[0]
    if kind in ("Z", "Zn"):
        return str(v)
    if kind == "GF":
        return "[" + ",".join(str(c) for c in v) + "]"
    if kind == "Zser":
        return "{%d;%s}" % (v[0], ",".join(str(c) for c in v[1:]))
    return "(" + ",".join(literal(f, c) for f, c in zip(spec[1], v)) + ")"


def random_element(rng, spec, bound=9, degree=3, exact_degree=False):
    kind = spec[0]
    if kind == "Z":
        return rng.randint(-bound, bound)
    if kind == "Zn":
        return rng.randrange(spec[1])
    if kind == "GF":
        p = spec[1]
        cs = [rng.randrange(p) for _ in range(degree)]
        cs.append(rng.randrange(1, p) if exact_degree else rng.randrange(p))
        return checks.ptrim(cs)
    return tuple(random_element(rng, f, bound, degree, exact_degree) for f in spec[1])


def random_matrix(rng, spec, rows, cols, **kw):
    return [[random_element(rng, spec, **kw) for _ in range(cols)] for _ in range(rows)]


def matrix_text(spec, rows):
    lines = [f"ring: {spec_str(spec)}", f"shape: {len(rows)} {len(rows[0])}"]
    lines += [" ".join(literal(spec, v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def run_cli(argv):
    """One in-process `edr` invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = edr_cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# certify-dense: library diagonal_reduce + verify_reduction on dense inputs

# (ring spec, size, count, generator options). The cost of one Z or Z/360
# matrix varies several-fold with its entries, that of a GF(5)[x] or
# product matrix much less. The mix puts the median task among the 34
# GF(5)[x] 8x8 and product 8x8 matrices and the 90th percentile among the
# 26 product 9x9 ones, so p50 and p90 stay put from seed to seed (see README).
# GF(5)[x] 8x8 is kept to 8: sympy's Smith form of one takes about 0.5 s in
# the untimed checks.
CERTIFY_MIX = (
    (Z, 12, 16, {}),
    (zn(360), 10, 12, {}),
    (zn(360), 12, 6, {}),
    (gf(5), 6, 6, {"exact_degree": True}),
    (gf(5), 7, 6, {"exact_degree": True}),
    (gf(5), 8, 8, {"exact_degree": True}),
    (prod(Z, zn(12)), 8, 26, {}),
    (prod(Z, zn(12)), 9, 26, {}),
)


class CertifyDense:
    name = "certify-dense"

    def __init__(self, seed, workdir):
        rng = random.Random(f"certify-dense/{seed}")
        self.tasks = []
        for spec, n, count, opts in CERTIFY_MIX:
            ring = edr_ring(spec)
            for _ in range(count):
                rows = random_matrix(rng, spec, n, n, **opts)
                A = RingMatrix.from_payloads(ring, rows)
                self.tasks.append(
                    Task(
                        f"certify {spec_str(spec)} {n}x{n}",
                        self._runner(A),
                        self._checker(spec, rows),
                    )
                )
        # interleaved, so that no kind of task is timed in one stretch of the
        # host's speed
        rng.shuffle(self.tasks)

    @staticmethod
    def _runner(A):
        def run():
            cert = edr_reduce.diagonal_reduce(A)
            return cert, edr_reduce.verify_reduction(A, cert)

        return run

    @staticmethod
    def _checker(spec, rows):
        def check(out):
            cert, report = out
            if not report.ok:
                return f"verify_reduction failed: {report.failures}"
            return checks.reduction(spec, rows, *(plain_matrix(M) for M in (cert.P, cert.D, cert.Q)))

        return check

    def warm_up(self):
        for spec, _, _, opts in CERTIFY_MIX:
            rng = random.Random(0)
            A = RingMatrix.from_payloads(edr_ring(spec), random_matrix(rng, spec, 3, 3, **opts))
            edr_reduce.verify_reduction(A, edr_reduce.diagonal_reduce(A))

    @staticmethod
    def document(out):
        cert, report = out
        ring = cert.D.ring
        return edr_serialize.dumps(
            edr_serialize.reduction_certificate_to_doc(ring, cert)
        ) + edr_serialize.dumps(edr_serialize.check_report_to_doc(report))


def plain(e):
    """An edr element payload as plain ints / tuples."""
    p = e.payload
    if isinstance(p, tuple) and p and not isinstance(p[0], int):
        return tuple(plain(c) for c in p)
    return p


def plain_matrix(M):
    return [[plain(e) for e in row] for row in M.entries]


# ---------------------------------------------------------------------------
# CLI workloads


class _CliWorkload:
    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.tasks = []
        self._files = 0

    def write(self, text, suffix):
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(self, kind, argv, check):
        self.tasks.append(Task(kind, lambda: run_cli(argv), check))

    # --- writers --------------------------------------------------------

    def add_reduce(self, spec, rows):
        path = self.write(matrix_text(spec, rows), ".txt")
        self.add(
            f"reduce {spec_str(spec)}",
            ["reduce", "--ring", spec_str(spec), "--matrix", path],
            lambda out: checks.reduce_doc(spec, rows, out),
        )

    def add_complete(self, spec, row, d):
        # --opt=value: argparse would take a value such as "-4,6" for a flag
        argv = [
            "complete",
            f"--ring={spec_str(spec)}",
            "--row=" + ",".join(literal(spec, v) for v in row),
            f"--det={literal(spec, d)}",
        ]
        self.add(
            f"complete {spec_str(spec)}", argv, lambda out: checks.complete_doc(spec, row, d, out)
        )

    def add_split(self, spec, a, b, pi=False):
        argv = ["split", f"--ring={spec_str(spec)}", f"--a={literal(spec, a)}", f"--b={literal(spec, b)}"]
        if pi:
            argv.append("--pi")
        self.add(
            f"split{' --pi' if pi else ''} {spec_str(spec)}",
            argv,
            lambda out: checks.split_doc(spec, a, b, out),
        )

    def add_lift(self, spec, a, b, c, sr2=False):
        argv = ["lift", f"--ring={spec_str(spec)}"]
        argv += [f"--a={literal(spec, a)}", f"--b={literal(spec, b)}", f"--c={literal(spec, c)}"]
        if sr2:
            argv.append("--sr2")
        self.add(
            f"lift{' --sr2' if sr2 else ''} {spec_str(spec)}",
            argv,
            lambda out: checks.lift_doc(spec, a, b, c, sr2, out),
        )

    def add_check(self, spec, predicate):
        self.add(
            f"check {predicate}",
            ["check", "--ring", spec_str(spec), "--predicate", predicate],
            lambda out: checks.predicate_doc(spec, predicate, out),
        )

    # --- readers --------------------------------------------------------

    def add_verify(self, spec, rows, cert_doc):
        mpath = self.write(matrix_text(spec, rows), ".txt")
        cpath = self.write(json.dumps(cert_doc), ".json")
        self.add(
            f"verify {spec_str(spec)}",
            ["verify", "--ring", spec_str(spec), "--matrix", mpath, "--cert", cpath],
            checks.verify_ok_doc,
        )

    def add_refused(self, argv, exit_code, error):
        self.add(
            f"refused {error}", argv, lambda out: checks.refused_doc(exit_code, error, out)
        )

    @staticmethod
    def document(out):
        return out[1]


# unimodular draws: retry until the gcd condition holds; the bounds make a
# retry rare, and the same seed always retries the same way


def unimodular_ints(rng, k, lo, hi, n=0):
    while True:
        vs = [rng.randint(lo, hi) for _ in range(k)]
        if math.gcd(*vs, n) == 1:
            return vs


CLI_ZN = (12, 18, 20, 24, 28, 30, 36, 40, 45, 60, 72, 84, 90)
CLI_GF = (2, 3, 5, 7)
CLI_PROD = (prod(Z, zn(6)), prod(zn(4), zn(9)), prod(Z, zn(10)))
CLI_REDUCE_SHAPES = ((3, 5), (4, 4), (5, 6), (6, 3), (5, 5), (6, 6))
CLI_CHECK = (
    zn(6), zn(8), zn(10), zn(12), zn(15), zn(16), zn(18), zn(20), zn(24), zn(28), zn(30),
    prod(zn(2), zn(3)), prod(zn(2), zn(4)), prod(zn(3), zn(3)), prod(zn(2), zn(5)),
)
# JStableCondition costs n^3 gcd-checked triples; keep it to the smaller rings
CLI_JSTABLE_MAX = 12


class CliMixed(_CliWorkload):
    """Several hundred short `edr` calls; parse -> compute -> serialize."""

    name = "cli-mixed"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # shapes, sizes and product rings are fixed; the seed draws moduli,
        # primes and entries, so the heavier calls that set p90 are the same
        # kinds of call for every seed
        for i, (rows, cols) in enumerate(CLI_REDUCE_SHAPES):
            self.add_reduce(Z, random_matrix(rng, Z, rows, cols))
            spec = zn(rng.choice(CLI_ZN))
            self.add_reduce(spec, random_matrix(rng, spec, cols, rows))
            spec = gf(rng.choice(CLI_GF))
            n = 2 + i % 3
            self.add_reduce(spec, random_matrix(rng, spec, n, n, degree=2))
            spec = CLI_PROD[i % 3]
            self.add_reduce(spec, random_matrix(rng, spec, n, n))

        for i in range(24):
            spec = (Z, zn(rng.choice(CLI_ZN)), gf(rng.choice(CLI_GF)), CLI_PROD[i // 4 % 3])[i % 4]
            n = 2 + i // 4 % 4
            rows = random_matrix(rng, spec, n, n, degree=2)
            A = RingMatrix.from_payloads(edr_ring(spec), rows)
            cert = edr_reduce.diagonal_reduce(A)
            doc = edr_serialize.reduction_certificate_to_doc(A.ring, cert)
            self.add_verify(spec, rows, doc)

        for _ in range(24):
            k = rng.randint(2, 5)
            g = rng.randint(1, 6)
            self.add_complete(Z, [g * v for v in unimodular_ints(rng, k, -20, 20)], g)
        for _ in range(24):
            n = rng.choice(CLI_ZN)
            g = rng.choice([d for d in range(1, n) if n % d == 0])
            row = [g * v % n for v in unimodular_ints(rng, rng.randint(2, 5), 0, n - 1, n)]
            self.add_complete(zn(n), row, math.gcd(*row, n))
        for _ in range(16):
            p = rng.choice(CLI_GF)
            while True:
                row = [random_element(rng, gf(p), degree=2) for _ in range(rng.randint(2, 4))]
                if checks.pgcd_all(row, p) == (1,):
                    break
            self.add_complete(gf(p), row, (1,))

        for _ in range(24):
            self.add_split(Z, rng.choice([-1, 1]) * rng.randint(1, 5000), rng.randint(-300, 300))
        for _ in range(16):
            p = rng.choice(CLI_GF)
            a = random_element(rng, gf(p), degree=4, exact_degree=True)
            self.add_split(gf(p), a, random_element(rng, gf(p), degree=3))
        for _ in range(16):
            k = rng.randint(2, 6)
            f = [rng.choice([-1, 1]) * rng.randint(1, 400)]
            f += [rng.randint(-9, 9) for _ in range(k - 1)]
            g = [rng.randint(0, 400)] + [rng.randint(-9, 9) for _ in range(k - 1)]
            self.add_split(("Zser", k), tuple(f), tuple(g))
        for _ in range(24):
            n = rng.choice(CLI_ZN)
            self.add_split(zn(n), rng.randrange(n), rng.randrange(n), pi=True)

        for sr2 in (False, True):
            for _ in range(20):
                a, b, c = unimodular_ints(rng, 3, -60, 60)
                if a == 0:
                    a = 1
                self.add_lift(Z, a, b, c, sr2)
            for _ in range(20):
                n = rng.choice(CLI_ZN)
                while True:
                    a, b, c = unimodular_ints(rng, 3, 0, n - 1, n)
                    if a % checks.radical(n):
                        break
                self.add_lift(zn(n), a, b, c, sr2)

        for spec in CLI_CHECK:
            card = checks.cardinality(spec)
            for predicate in edr_checkers.PREDICATES:
                if predicate == "JStableCondition" and card > CLI_JSTABLE_MAX:
                    continue
                self.add_check(spec, predicate)

        # well-formed requests that must be refused with a documented code
        for _ in range(3):
            g = rng.randint(2, 9)
            self.add_refused(
                ["lift", "--ring", "Z", "--a", str(g), "--b", str(2 * g), "--c", str(3 * g)],
                2,
                "PreconditionFailed",
            )
            self.add_refused(
                ["split", "--ring", "Z", "--a", "0", "--b", str(rng.randint(1, 99))], 2, "ZeroElement"
            )
            d = rng.randint(5, 9)
            self.add_refused(
                ["complete", "--ring", "Z", "--row", f"{d + 1},{2 * d}", "--det", str(d)],
                2,
                "NotPrincipal",
            )
            self.add_refused(
                ["split", "--ring", "Z", "--a", str(rng.randint(2, 99)), "--b", "4", "--pi"],
                1,
                "UsageError",
            )
            self.add_refused(
                ["check", "--ring", "Z", "--predicate", rng.choice(edr_checkers.PREDICATES)],
                2,
                "UnsupportedRing",
            )

        rng.shuffle(self.tasks)

    def warm_up(self):
        for task in self.tasks[:: max(1, len(self.tasks) // 20)]:
            task.run()


def bigmod_prime(rng, lo, width):
    """A prime drawn from [lo, lo + width); the narrow window keeps the
    trial-division cost of each modulus alike from seed to seed."""
    while True:
        p = rng.randrange(lo, lo + width) | 1
        if checks.is_prime(p):
            return p


def bigmod_triple(rng, n, factor):
    """Unimodular (a, b, c) mod n with a a nonzero multiple of `factor`."""
    while True:
        a, b, c = factor * rng.randrange(n) % n, rng.randrange(n), rng.randrange(n)
        if a and math.gcd(a, b, c, n) == 1:
            return a, b, c


# every command costs about the same (one trial-division factorization), so
# p90 reads per-task jitter: six moduli make a round short enough for four
# rounds, whose per-task medians settle it
BIGMOD_MODULI = 6


class CliBigmod(_CliWorkload):
    """Every command parses a fresh Z/n with n = p*q, p ~ 2^21, q ~ 2^22."""

    name = "cli-bigmod"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        for _ in range(BIGMOD_MODULI):
            self.add_modulus(rng, bigmod_prime(rng, 1 << 21, 1 << 16), bigmod_prime(rng, 1 << 22, 1 << 17))
        rng.shuffle(self.tasks)  # as in certify-dense

    def add_modulus(self, rng, p, q):
        """The six commands, each on its own copy of the ring Z/(p*q)."""
        n = p * q
        spec = zn(n)
        self.add_split(spec, rng.randrange(n), p * rng.randrange(q), pi=True)
        self.add_lift(spec, *bigmod_triple(rng, n, p))
        self.add_lift(spec, *bigmod_triple(rng, n, 1), sr2=True)
        self.add_complete(spec, unimodular_ints(rng, 3, 0, n - 1, n), 1)
        self.add_reduce(spec, random_matrix(rng, spec, 3, 3))
        self.add_verify(spec, *checks.synthetic_certificate(rng, n, p))

    def warm_up(self):
        # every command once on Z/143, so first-call costs land in set-up
        kept = len(self.tasks)
        self.add_modulus(random.Random(0), 11, 13)
        for task in self.tasks[kept:]:
            task.run()
        del self.tasks[kept:]


# ---------------------------------------------------------------------------
# scan: check_finite_predicate over Z/n (n <= 96) and small products

# The cheap predicates (StableRange1, Clean, PmRing: n^2 or n elements) run
# on every Z/n with n in SCAN_MODULI and set the median task. JStableCondition
# (about n^4 / 4 elements, far from monotone in n) runs on one modulus of each
# neighbouring pair of SCAN_MODULI ordered by that count, drawn by the seed:
# pairs of n alike in cost, not in size, keep the sorted task times, so the
# wall and p90, nearly the same from seed to seed. Each product ring gets all
# four predicates on the generic path.
SCAN_MODULI = range(16, 80)
SCAN_HEAVY = "JStableCondition"
# product pools of one cardinality each, so each draw costs about the same
SCAN_PRODUCT_POOLS = (
    ((2, 6), (3, 4)),
    ((2, 8), (4, 4)),
    ((2, 9), (3, 6)),
    ((4, 5), (2, 10)),
)


def scan_heavy_moduli(rng):
    by_cost = sorted(SCAN_MODULI, key=lambda n: (checks.elements_scanned(zn(n), SCAN_HEAVY), n))
    return [rng.choice(by_cost[i : i + 2]) for i in range(0, len(by_cost), 2)]


class Scan:
    name = "scan"

    def __init__(self, seed, workdir):
        rng = random.Random(f"scan/{seed}")
        cheap = tuple(p for p in edr_checkers.PREDICATES if p != SCAN_HEAVY)
        jobs = [(zn(n), cheap) for n in SCAN_MODULI]
        jobs += [(zn(n), (SCAN_HEAVY,)) for n in scan_heavy_moduli(rng)]
        jobs += [
            (prod(*(zn(m) for m in rng.choice(pool))), edr_checkers.PREDICATES)
            for pool in SCAN_PRODUCT_POOLS
        ]
        self.tasks = []
        for spec, predicates in jobs:
            ring = edr_ring(spec)
            for predicate in predicates:
                self.tasks.append(
                    Task(
                        f"{predicate} {spec_str(spec)}",
                        self._runner(ring, predicate),
                        self._checker(spec, predicate),
                    )
                )
        rng.shuffle(self.tasks)  # as in certify-dense

    @staticmethod
    def _runner(ring, predicate):
        return lambda: (ring, edr_checkers.check_finite_predicate(ring, predicate))

    @staticmethod
    def _checker(spec, predicate):
        def check(out):
            report = out[1]
            return checks.predicate(spec, predicate, report.holds, report.elements_scanned)

        return check

    def warm_up(self):
        for spec in (zn(12), prod(zn(2), zn(3))):
            for predicate in edr_checkers.PREDICATES:
                edr_checkers.check_finite_predicate(edr_ring(spec), predicate)

    @staticmethod
    def document(out):
        return edr_serialize.dumps(edr_serialize.predicate_report_to_doc(*out))


WORKLOADS = {w.name: w for w in (CertifyDense, CliMixed, Scan, CliBigmod)}
