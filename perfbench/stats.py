"""Summary rules shared by every workload: percentiles and failure shares."""

from __future__ import annotations

import math
from typing import Sequence

#: Fewest timed queries per closed-loop run: ten samples must lie beyond
#: p90 (nearest rank over 100 samples leaves exactly ten above it).
MIN_QUERIES = 100


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of
    the samples at or below it (an observed value, never interpolated)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def failed_frac(failed: int, attempted: int) -> float:
    """Failed queries over attempted ones.  A query fails when it raises,
    when its answer differs from the oracle, or when the engine sheds it
    or ends it past its deadline or budget."""
    if attempted < 1:
        raise ValueError("no query was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted

