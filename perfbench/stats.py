"""Latency summaries: the median and the tail percentile rule."""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the latency tail.

    The tail is the highest order statistic that still has at least
    ten samples above it: with n sorted samples, the one at rank n - 10,
    reported as percentile 100 (n - 10) / n.  When that rank lies below
    the median (fewer than 20 samples) the tail falls back to the median,
    reported as percentile 50 with the samples actually above it.
    """
    values = sorted(latencies)
    n = len(values)
    if n == 0:
        raise ValueError("no latencies")
    rank = n - TAIL_BEYOND
    if 2 * rank >= n:
        return values[rank - 1], 100.0 * rank / n, TAIL_BEYOND
    median = statistics.median(values)
    return median, 50.0, sum(v > median for v in values)
