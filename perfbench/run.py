"""Benchmark entry point: one or all workloads, each in fresh processes.

    python3 perfbench/run.py --workload certify-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; edr is imported from ./src. For each workload
this starts SETUP_PROBES processes that only set up, then one that sets up
and measures (worker.py); `setup_s` is the median set-up time of all of
them, measured from just before the process is started to the worker's
ready stamp and scaled to the reference host speed by calibration samples
taken in this process right before and after each one (calibration.py).
Every line but the last is for people; the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit code is 0 only when every workload ran to its end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify-dense", "cli-mixed", "scan", "cli-bigmod")
SETUP_PROBES = 8
SETUP_SAMPLES = 5  # calibration samples before and after each set-up
WORKER_TIMEOUT_S = 170


class WorkerFailed(Exception):
    pass


def run_worker(argv, workdir):
    """Start worker.py, wait for it, return (start stamp, parsed last line)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.makedirs(workdir, exist_ok=True)
    try:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--workdir", workdir],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for probe in range(SETUP_PROBES + 1):
        measure = probe == SETUP_PROBES
        before = [calibration.sample(time.perf_counter)[1] for _ in range(SETUP_SAMPLES)]
        start, result = run_worker(argv if measure else argv + ["--setup-only"], workdir)
        after = [calibration.sample(time.perf_counter)[1] for _ in range(SETUP_SAMPLES)]
        setups.append((result["ready"] - start) * calibration.factor(before + after))
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def report(name, result):
    print(
        f"{name}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} rounds={result['rounds']} tasks/round={result['tasks_per_round']}"
    )
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for metric, m in sorted(result["metrics"].items()):
        print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "edr", "__init__.py")):
        print("run.py: no edr sources under ./src; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, results[name])
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
