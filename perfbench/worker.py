"""One workload in one fresh process; started by run.py, not by hand.

Set-up (import edr, build the seeded inputs, warm up) ends with a
`time.monotonic()` stamp that run.py turns into `setup_s`. With
`--setup-only` the process stops there. Otherwise it runs whole rounds of
the fixed task list: at least two, and at least MIN_TASK_RUNS task runs,
and beyond that as many as fit in `--seconds`. Then it checks the
outputs of the first round (untimed) and requires every later round to
emit the same bytes. Task times and the walls built from them are scaled
to the reference host speed (calibration.py). With `--trace 1` rounds
alternate between plain and traced (tracing.Tracer), at least two of
each, so the tracing overhead is the ratio of their median walls; the
per-layer figures come from the traced rounds and are not scaled. The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (needs the src path above)

MIN_ROUNDS = 2  # per kind of round: plain, and traced with --trace 1
MIN_TASK_RUNS = 100  # p90 stands on at least this many task executions


def run_round(tasks):
    """Run every task once, with a calibration sample before the first
    task, after the last and whenever calibration.EVERY_S has passed since
    the last sample.

    Returns (times, raw wall, outputs, failures). Tasks and samples are
    timed on the process's CPU clock: the tasks are single-threaded and
    never wait, so it reads as the wall clock would, except that it leaves
    out the time the host takes the virtual CPU away, which short samples
    cannot see. `times` are then scaled to the reference host speed
    (calibration.py). The raw wall includes the samples and only paces the
    run.
    """
    clock = time.process_time
    spans, outputs, failures = [], [], []
    start = time.perf_counter()
    samples = [calibration.sample(clock)]
    for task in tasks:
        t0 = clock()
        try:
            out = task.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = None
            failures.append(f"{task.kind}: {type(exc).__name__}: {str(exc)[:200]}")
        t1 = clock()
        spans.append((t0, t1))
        outputs.append(out)
        if t1 - samples[-1][0] >= calibration.EVERY_S:
            samples.append(calibration.sample(clock))
    samples.append(calibration.sample(clock))
    return calibration.scale(spans, samples), time.perf_counter() - start, outputs, failures


def hd_quantile(values, p, steps=40):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density over
    ((i-1)/n, i/n], so a task more or less near the quantile, or one task's
    jitter, moves the estimate a little instead of by a whole step."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * steps)
    weights = []

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    for i in range(n):  # midpoint rule, `steps` points per order statistic
        weights.append(sum(density((i * steps + j + 0.5) * h) for j in range(steps)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def emitted(workload, outputs):
    """Bytes and digest of every result document a round emitted."""
    blob = "".join(workload.document(out) for out in outputs if out is not None).encode()
    return len(blob), hashlib.sha256(blob).hexdigest()


def check_outputs(workload, outputs):
    problems = []
    for task, out in zip(workload.tasks, outputs):
        if out is None:
            continue
        try:
            reason = task.check(out)
        except Exception as exc:  # output too malformed to check is a wrong output
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason:
            problems.append(f"{task.kind}: {reason}")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    gc.collect()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return
    for _ in range(3):  # the loop's first runs are slower than the rest
        calibration.sample()

    rounds = []  # (scaled wall, times, bytes, digest)
    tracers = []
    first_outputs = None
    failures = []
    elapsed = 0.0
    min_rounds = MIN_ROUNDS * (1 + args.trace)
    while (
        len(rounds) < min_rounds
        or len(rounds) * len(workload.tasks) < MIN_TASK_RUNS
        or elapsed + elapsed / len(rounds) <= args.seconds
    ):
        tracer = None
        if args.trace and len(rounds) % 2:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            times, raw_wall, outputs, failed = run_round(workload.tasks)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
        elapsed += raw_wall
        failures += failed
        size, digest = emitted(workload, outputs)
        rounds.append((sum(times), times, size, digest))
        if first_outputs is None:
            first_outputs = outputs
        del outputs
        gc.collect()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(workload, first_outputs)
    if len({r[3] for r in rounds}) != 1:
        problems.append("rounds emitted different bytes")

    if args.trace:
        per_round = [
            {name: fn(t) for name, (_, fn) in tracing.LAYER_METRICS.items()} for t in tracers
        ]
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            values = [r[name] for r in per_round]
            if unit != "s" and len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_wall = statistics.median(r[0] for r in rounds[1::2])
        plain_wall = statistics.median(r[0] for r in rounds[0::2])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_wall / plain_wall - 1.0),
            "unit": "%",
        }
    else:
        # each task's median over the rounds, then quantiles over the tasks
        task_times = [statistics.median(ts) for ts in zip(*(r[1] for r in rounds))]
        metrics = {
            "wall_s": {"value": statistics.median(r[0] for r in rounds), "unit": "s"},
            "task_s_p50": {"value": hd_quantile(task_times, 0.5), "unit": "s"},
            "task_s_p90": {"value": hd_quantile(task_times, 0.9), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "out_bytes": {"value": rounds[0][2], "unit": "B"},
        }

    tasks = len(workload.tasks)
    print(
        json.dumps(
            {
                "ready": ready,
                "rounds": len(rounds),
                "tasks_per_round": tasks,
                "attempted": tasks * len(rounds),
                "failed": len(failures),
                "correct": not problems,
                "problems": (failures + problems)[:20],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
