"""Machine-speed reference: rescales wall times to one nominal speed.

The benchmark runs on shared machines whose speed drifts: a fixed CPU
loop measured over a minute on a two-vCPU VM slowed from 28 ms to 51 ms
and stayed there for tens of seconds, so whole runs land in a slow or a
fast phase.  To keep runs comparable, the harness interleaves short
*reference passes* — a fixed mix of interpreter and small NumPy work,
outside every timed region — and rescales each timed interval by
``(REFERENCE_S / median(reference passes measured near it)) ** SENSITIVITY``.
A program change cannot alter the reference pass, so it still moves the
rescaled times exactly as it moves wall time; most of the machine's
drift cancels.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

#: Duration of one reference pass at the nominal speed, seconds (close to
#: the pass's median on an idle 2-vCPU x86-64 VM).  Rescaled times read as
#: wall times on a machine of that speed.
REFERENCE_S = 0.0004
#: How strongly the workloads follow the reference pass: when the pass
#: slows by a factor ``x``, the queries slow by about ``x ** SENSITIVITY``.
#: Fitted as the slope of log raw throughput against log reference speed
#: over ten runs each of skyline-midas and topk-arena (0.71 and 0.69): the
#: tight reference loop suffers more from a busy sibling vCPU than the
#: queries do, and a full correction (1.0) over-corrected slow phases.
SENSITIVITY = 0.7
#: Passes per sample, and the least wall time between samples.
PASSES = 5
INTERVAL_S = 0.1
#: Samples within this distance of an interval's midpoint set its scale;
#: with fewer than ``NEAREST`` there, the ``NEAREST`` closest ones do.
WINDOW_S = 1.0
NEAREST = 10

_VECTOR = np.arange(16.0)


def reference_pass() -> float:
    """Fixed work shaped like the engines' inner loops: tuple keys, dict
    updates and a few small NumPy calls."""
    table: dict[tuple[int, int], int] = {}
    total = 0.0
    for i in range(1280):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        if not i & 7:
            total += float(np.dot(_VECTOR, _VECTOR))
    return total + len(table)


class Speed:
    """Reference-pass timings taken through one run, and the scale they
    give any interval of it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        clock = time.perf_counter
        for _ in range(PASSES):
            start = clock()
            reference_pass()
            end = clock()
            self.times.append((start + end) / 2)
            self.durations.append(end - start)
        self._last = clock()

    def tick(self) -> None:
        """Sample when ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Scale for the wall time of ``[start, end]``: nominal over
        measured reference speed near it, to the power ``SENSITIVITY``."""
        times = self.times
        if not times:
            raise ValueError("no reference samples")
        mid = (start + end) / 2
        lo = bisect_left(times, min(start, mid - WINDOW_S))
        hi = bisect_right(times, max(end, mid + WINDOW_S))
        while hi - lo < min(NEAREST, len(times)):
            if hi >= len(times) or (lo > 0
                                    and mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        measured = statistics.median(self.durations[lo:hi])
        return (REFERENCE_S / measured) ** SENSITIVITY
