"""A fixed kernel that gauges the host's current speed.

Usage::

    python3 perfbench/reference.py      # prints one JSON list of seconds

The benchmark's host is shared: for seconds to minutes at a time the
same instructions take up to 1.8x longer. ``run.py`` therefore starts
this script as a process of its own right before and right after every
sample, and scales each sample's timings to the speed at which the
kernel takes :data:`NOMINAL_S`, taking the mean speed of the two gauges
around the sample. The gauge process imports NumPy and
nothing of the simulator, so whatever the simulator does to its own
process (a trace or profile hook, a thread left running, changed
garbage-collector settings) cannot slow the gauge; such a change moves
the scaled times as it moves the raw ones.

The kernel has two halves of about equal time: an interpreter loop
around many small NumPy calls (accumulate, concatenate, stable argsort,
searchsorted), the Python dispatch and short C loops the simulator's
engines spend their time in, and a gather and stable argsort over a
131,072-entry permutation, the memory traffic of the simulator's page
layouts. The host's slow spells hit the two unequally. Timed in turn
with 55 ``fig5-st`` samples over five minutes in which the samples'
wall time drifted 1.8x, the small-call loop alone correlated 0.60 with
the sample times but moved 1.7x as much as they did, the large-array
half alone correlated 0.75 but moved 0.74x as much, and their sum
correlated 0.73 and moved 0.95x as much.
"""

from __future__ import annotations

import json
import time

#: Seconds the kernel takes at reference speed; a gauge's speed is
#: ``NOMINAL_S / mean(kernel seconds)``.
NOMINAL_S = 0.05

#: Timed kernel runs per gauge reading. The host's speed flickers
#: between two levels about 1.5x apart many times a second, so a
#: gauge must run long enough to read the share of time spent at each:
#: one second of kernel runs, not the quarter second five runs take.
REPEATS = 20

#: Loop iterations of the small-call half.
ROUNDS = 1000

#: Entries of the large-array half's permutation (one per page).
PAGES = 131072


def kernel() -> float:
    """Run the kernel once; returns a checksum."""
    import numpy as np

    rng = np.random.default_rng(7)
    total = 0.0
    for _ in range(ROUNDS):
        chains = [np.add.accumulate(rng.random(48) * 12.0) for _ in range(3)]
        merged = np.concatenate(chains)
        order = np.argsort(merged, kind="stable")
        ends = np.maximum(merged[order], 5.0)
        total += float(ends[int(np.searchsorted(ends, 100.0)) % len(ends)])
    values = rng.random(PAGES * 4)
    gathered = values[rng.permutation(PAGES) * 4]
    order = np.argsort(gathered, kind="stable")
    return total + float(gathered[order[::1024]].sum())


def kernel_times() -> list[float]:
    """Wall seconds of :data:`REPEATS` kernel runs after an untimed one."""
    kernel()  # imports NumPy and warms its caches
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    print(json.dumps(kernel_times()))
