"""Sample statistics shared by the workloads and ``compare``."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``samples``, linearly interpolated."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_tail(count: int, wanted: float) -> bool:
    """True when at least ten of ``count`` samples lie beyond ``wanted``."""
    return count * (1.0 - wanted) >= 10.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


median = statistics.median
mean = statistics.fmean
