"""Order statistics used by every workload and by the steadiness report."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; otherwise the sample does not support it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(pct/100 * n))."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie strictly above the nearest-rank *pct*."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_supported(count: int, pct: float) -> bool:
    """The ten-beyond rule: *pct* is reportable from *count* samples."""
    return samples_beyond(count, pct) >= TAIL_MIN_BEYOND
