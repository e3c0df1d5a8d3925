"""Latency percentiles and the rule for which tail percentile to trust."""

from __future__ import annotations

import math

# A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0 <= p <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the ``p``-th percentile of ``n``."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND):
    """Highest whole percentile with ``min_beyond`` samples beyond it.

    ``None`` when even the median has fewer samples beyond it.
    """
    for p in range(99, 49, -1):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None

