"""Order statistics shared by every workload of the benchmark.

Timings are reported as a median and a *tail*: the highest percentile of
a fixed ladder that still has at least ten samples beyond it, so a tail
is never decided by one or two outliers.  The percentile and the number
of samples are returned with the value, so a report can print them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9, 99.95, 99.99)

#: Samples a tail percentile must have beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail value with the percentile it was taken at."""

    value: float
    percentile: float
    samples: int
    beyond: int


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values: ``(value, samples beyond)``."""
    n = len(sorted_values)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values) -> Tail:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond it.

    Raises ``ValueError`` when even the median has fewer than ten samples
    beyond it (fewer than 20 samples): such a tail is not reportable.
    """
    ordered = sorted(float(v) for v in values)
    if len(ordered) < 2 * MIN_BEYOND:
        raise ValueError(
            f"{len(ordered)} samples: a tail needs at least "
            f"{2 * MIN_BEYOND} (ten beyond the median)"
        )
    best = None
    for percentile in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, percentile)
        if beyond < MIN_BEYOND:
            break
        best = Tail(value, percentile, len(ordered), beyond)
    return best


def median(values) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))
