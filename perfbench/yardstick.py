"""A fixed pure-Python loop that gauges the machine's current speed.

A shared virtual machine can run at speeds up to about 1.7 times apart, each
held for seconds to minutes (seen on a 2-vCPU Xeon guest), and process CPU
time follows wall time there, so neither removes the drift.  The benchmark
therefore times this loop beside the program and reports each time scaled to a machine
on which one pass takes NOMINAL_S:

    scaled seconds = measured seconds * NOMINAL_S / (time of one pass nearby)

The loop does what the program's hot loops do (tuple keys, dict lookups and
stores, integer arithmetic) and never touches `tmtensor`, so a change to the
program moves the scaled times and not the gauge.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.003
ITERATIONS = 10_000
# Passes timed just before a set-up probe starts and just after its set-up ends.
SETUP_PASSES = 5


def one_pass() -> float:
    """Seconds taken by one pass of the loop."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(ITERATIONS):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """The factor that turns seconds measured beside ``samples`` into scaled seconds."""
    return NOMINAL_S / statistics.median(samples)
