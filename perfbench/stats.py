"""Order statistics for the benchmark's reports.

Percentiles use linear interpolation between closest ranks, the rule of
``numpy.percentile``'s default method, written out here so the reported
figures do not depend on the numpy version under test.
"""

from __future__ import annotations

import math

# A tail percentile means little unless enough samples lie beyond it.
MIN_BEYOND_TAIL = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 <= q <= 100) of a non-empty sample."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(values, q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` while fewer than ten samples lie beyond it."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND_TAIL:
        return None
    return percentile(values, q)
