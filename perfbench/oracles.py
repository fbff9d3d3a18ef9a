"""The centralised top-k answer the benchmark checks top-k queries against.

Skyline answers are checked against the library's ``skyline_reference``.
Oracles run outside the timed region.  ``topk_oracle`` is vectorised: the
library's ``topk_reference`` scores rows one by one in Python, which takes
seconds per query on the 500k-tuple arena.
"""

from __future__ import annotations

import numpy as np

from repro import ScoringFunction
from repro.common.geometry import as_point


def topk_oracle(data: np.ndarray, fn: ScoringFunction, k: int
                ) -> list[tuple[float, tuple[float, ...]]]:
    """The top-``k`` ``(score, tuple)`` pairs, best first, ties broken by
    tuple — the order ``TopKHandler.finalize`` returns.

    Rows are pre-selected with one vectorised scoring pass; only rows
    within a rounding margin of the k-th best batch score are re-scored
    with ``fn.score``, the function the distributed answer uses, so the
    returned floats are the ones the engine reports.
    """
    scores = fn.score_batch(data)
    if len(scores) > k:
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        margin = 1e-9 * max(1.0, abs(float(kth)))
        rows = data[np.flatnonzero(scores >= kth - margin)]
    else:
        rows = data
    pairs = [(fn.score(point), point) for point in map(as_point, rows)]
    pairs.sort(key=lambda pair: (-pair[0], pair[1]))
    return pairs[:k]

