"""Order statistics used by the runner and ``compare``.

``percentile`` uses the same rule as ``statistics.quantiles(...,
method="inclusive")`` (linear interpolation between closest ranks), so
the self-test can check it against the standard library.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` (inclusive method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``.

    That is the rule the acceptance check of the benchmark contract
    applies to ten runs, so the spread column reads the same way. One
    sample has no spread: both quartiles are the sample.
    """
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if median is 0)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
