"""Reference scaling sweep (not a workload): certify dense Z matrices.

    python3 perfbench/sweep.py [--sizes 12,14,16,18] [--seeds 1,2,3]

For each size n and seed, builds the certify-dense Z input (entries in
[-9, 9]), times diagonal_reduce + verify_reduction once, and logs the
largest entry of P, D and Q in bits beside the time, so coefficient growth
and the determinant's cost can be read at more than one size. Prints one
line per run and a median line per size; the certificate is re-checked
against sympy's Smith form as in the workload.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from edr import IntegerRing, RingMatrix, diagonal_reduce, verify_reduction  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="12,14,16,18")
    ap.add_argument("--seeds", default="1,2,3")
    args = ap.parse_args()
    sizes = [int(v) for v in args.sizes.split(",")]
    seeds = [int(v) for v in args.seeds.split(",")]

    print(f"{'n':>3} {'seed':>5} {'seconds':>9} {'cert_max_bits':>14}")
    for n in sizes:
        times, bits = [], []
        for seed in seeds:
            rows = workloads.random_matrix(random.Random(f"sweep/{n}/{seed}"), workloads.Z, n, n)
            A = RingMatrix.from_payloads(IntegerRing(), rows)
            t0 = time.perf_counter()
            cert = diagonal_reduce(A)
            ok = verify_reduction(A, cert).ok
            times.append(time.perf_counter() - t0)
            bits.append(tracing.cert_max_bits([cert]))
            problem = None if ok else "verify_reduction failed"
            problem = problem or checks.reduction(
                workloads.Z, rows, *(workloads.plain_matrix(M) for M in (cert.P, cert.D, cert.Q))
            )
            if problem:
                print(f"n={n} seed={seed}: {problem}", file=sys.stderr)
                return 1
            print(f"{n:>3} {seed:>5} {times[-1]:>9.3f} {bits[-1]:>14}", flush=True)
        print(
            f"{n:>3} {'med':>5} {statistics.median(times):>9.3f} {statistics.median(bits):>14g}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
