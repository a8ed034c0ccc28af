"""Summary statistics the benchmark reports: medians, quartiles, and
the highest percentile a sample can support."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

# A tail percentile is reported only when this many samples lie beyond
# it; with fewer, one slow outlier decides the value.
TAIL_SAMPLES_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_SAMPLES_BEYOND``
    samples beyond it, as ``(percentile, value)``; ``None`` when the
    sample is too small for that percentile to lie above the median."""
    n = len(values)
    if n < 2 * TAIL_SAMPLES_BEYOND + 1:
        return None
    ordered = sorted(values)
    index = n - 1 - TAIL_SAMPLES_BEYOND
    return 100.0 * (index + 1) / n, ordered[index]
