"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail(samples: Sequence[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``: the value is the
    eleventh largest sample, so exactly ten lie above it.  ``None`` when
    there are too few samples for a tail.
    """
    n = len(samples)
    if n <= TAIL_SAMPLES_BEYOND:
        return None
    ordered = sorted(samples)
    return (
        float(ordered[n - TAIL_SAMPLES_BEYOND - 1]),
        100.0 * (n - TAIL_SAMPLES_BEYOND) / n,
        n,
    )


def spread(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)
