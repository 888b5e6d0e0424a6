"""Latency summaries and run-to-run spread."""

from __future__ import annotations

import statistics


def tail_rank(n: int) -> int:
    """1-based rank of the highest order statistic with at least ten samples
    above it. With ten samples or fewer no such statistic exists and the
    maximum (rank n, nothing beyond it) stands in."""
    if n < 1:
        raise ValueError("no samples")
    return n - 10 if n > 10 else n


def latency_summary(samples: list[float]) -> dict:
    """Median plus the tail order statistic, with the percentile it stands for
    and how many samples lie beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = tail_rank(n)
    return {
        "count": n,
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "tail_beyond": n - rank,
    }


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (Python's default
    `statistics.quantiles` method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
