"""Calibrated timing for the end-to-end metrics.

The CPU speed of a shared host drifts.  On the 2-core machine the bounds were
set on, a fixed pure-Python loop ran in regimes up to 1.5x apart, each
lasting seconds, and a whole run could fall in either; every wall time moved
with the host, not with the code.  To factor the host out, a fixed loop that
never touches braidvol is timed right beside each measurement, and the
measurement is reported as if that loop had taken exactly ``NOMINAL_NS``.

A change to braidvol moves calibrated and measured times alike; a change in
host speed moves the loop and the measurement together and cancels.  The
measured (uncalibrated) times are reported beside the calibrated ones.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter_ns

NOMINAL_NS = 1_000_000  # the loop's duration by definition: 1 ms
LOOP_ITERATIONS = 2000  # about 1 ms of interpreter work on that machine


def _loop() -> int:
    """Fixed interpreter work of the kind braidvol does: integer arithmetic,
    dict updates, small tuples, a list sort."""
    acc = 0
    table: dict[int, int] = {}
    pairs = []
    for i in range(LOOP_ITERATIONS):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
        acc ^= i * i
    pairs.sort()
    return acc + len(table)


class Clock:
    """Times the calibration loop and rescales measurements with it.

    ``recent`` keeps the last three loop times: their median is the host's
    current speed, robust to one disturbed loop.  ``loops`` keeps them all.
    """

    def __init__(self) -> None:
        self.recent: deque[int] = deque(maxlen=3)
        self.loops: list[int] = []

    def tick(self) -> int:
        """Time the loop once; return its nanoseconds."""
        start = perf_counter_ns()
        _loop()
        ns = perf_counter_ns() - start
        self.recent.append(ns)
        self.loops.append(ns)
        return ns

    def scale(self, measured: float, loops: list[int] | None = None) -> float:
        """``measured`` (any time unit) as if the loop took ``NOMINAL_NS``:
        against the median of ``loops``, or of the recent loops."""
        return measured * NOMINAL_NS / statistics.median(loops or self.recent)
