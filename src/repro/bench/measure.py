"""The paper's measurement methodology (Section 8).

"Each measurement was repeated nine times in succession, and we report the
average of the five median times.  This methodology was chosen to minimize
the chance that a garbage collection or JIT event would occur during one
measurement and not during another."  (For us: a CPython GC pause or a
cache-cold first run.)  The benchmarks run nine rounds; this module
reduces them.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from repro.errors import GraftError

#: The paper's number of median times averaged.
KEPT_MEDIANS = 5


def paper_statistic(times: Sequence[float]) -> float:
    """The mean of the middle ``min(KEPT_MEDIANS, len(times))`` sorted times.

    Nine times give the paper's "average of the five median times";
    fewer than five times are all averaged, never a tail value alone.
    """
    if not times:
        raise GraftError("paper_statistic needs at least one time")
    ordered = sorted(times)
    keep = min(KEPT_MEDIANS, len(ordered))
    lo = (len(ordered) - keep) // 2
    return statistics.fmean(ordered[lo:lo + keep])


def reduction_percent(baseline: float, optimized: float) -> float:
    """Figure 3's metric: "the difference between unoptimized and
    optimized execution time as percentage of the unoptimized time"."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - optimized) / baseline
