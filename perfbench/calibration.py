"""Host-speed calibration: time figures scaled to a reference speed.

The host this benchmark runs on is a shared VM whose speed moves by 20 %
and more from one second to the next as well as over minutes, and CPU
time moves with it. A run's time figures are therefore taken against a
short fixed pure-Python loop (`work`, about 2 ms) that the worker runs
between tasks, at most `EVERY_S` seconds apart: each task's time is
multiplied by `REFERENCE_S / (median duration of the NEAREST samples
nearest to it)`, which is the time the task would have taken on a host
where `work` takes `REFERENCE_S` seconds. Short, dense samples matter:
judged by samples spread over a few seconds rather than a few tenths, a
task's time scatters about half as much again. Slower edr code still
shows as a larger figure; a slower host does not. The loop exercises what
edr spends its time on (small and big int arithmetic, tuples, lists,
dicts, calls) and never touches edr.
"""

from __future__ import annotations

import bisect
import statistics
import time

# median duration of `work` on the reference host (2 vCPU Intel Xeon VM,
# 2.1 GHz, Python 3.11.7); only the scale of the reported figures rests on it
REFERENCE_S = 0.0022
EVERY_S = 0.05
NEAREST = 5

_MERSENNE = (1 << 127) - 1


def _step(i, acc):
    return (i * 2654435761 + acc) % 1000003


def work():
    acc, pairs, buckets = 0, [], {}
    for i in range(3000):
        q, r = divmod(_step(i, acc), 97)
        pairs.append((q, r))
        acc ^= q + r
    for q, r in pairs:
        buckets[r] = buckets.get(r, 0) + q
    big = 3**120
    for i in range(375):
        big = (big * big + i) % _MERSENNE
    return acc + len(buckets) + big


def sample(clock=time.process_time):
    """(midpoint stamp, duration) of one run of `work` on `clock`."""
    t0 = clock()
    work()
    t1 = clock()
    return (t0 + t1) / 2, t1 - t0


def factor(durations):
    """Scale from this host's speed, as seen in `durations`, to the reference."""
    return REFERENCE_S / statistics.median(durations)


def scale(spans, samples):
    """Each (start, end) span's duration at the reference speed, judged by
    the NEAREST samples (time-ordered (stamp, duration) pairs) to its middle."""
    stamps = [s for s, _ in samples]
    scaled = []
    for t0, t1 in spans:
        mid = (t0 + t1) / 2
        lo = hi = bisect.bisect_left(stamps, mid)
        while hi - lo < min(NEAREST, len(stamps)):
            if lo > 0 and (hi == len(stamps) or mid - stamps[lo - 1] <= stamps[hi] - mid):
                lo -= 1
            else:
                hi += 1
        scaled.append((t1 - t0) * factor([d for _, d in samples[lo:hi]]))
    return scaled
