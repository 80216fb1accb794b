"""Order statistics and span self-time arithmetic."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def iqr_ratio(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns (value, percentile, sample count).  With too few samples the
    maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    while pct > 0 and n - math.ceil(pct / 100.0 * n) < TAIL_BEYOND:
        pct -= 1
    return nearest_rank(ordered, pct), pct, n


def self_times(spans: Sequence[tuple[float, float, int | None]]) -> list[float]:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` holds (start, end, parent index or None).  Spans come from one
    thread, so children of one parent never overlap and lie inside it.
    """
    child = [0.0] * len(spans)
    for start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - c for (start, end, _), c in zip(spans, child)]
