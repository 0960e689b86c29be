"""Summary statistics used by every workload.

Timings are reported as a median and a 90th percentile.  A percentile
is only reported when at least ten samples lie beyond it, so the p90
of fewer than 100 samples is refused rather than guessed.
"""

from __future__ import annotations

import math
import statistics

#: samples a percentile needs beyond it before it is reported
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q`` percentile (0 < q < 1) has at
    least :data:`MIN_BEYOND` samples beyond it."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` percentile that leaves >= ``MIN_BEYOND``
    samples strictly above its rank.

    With ``n`` samples the value at rank ``ceil(q * n)`` is returned;
    the ``n - ceil(q * n)`` samples after it are the ones "beyond".
    Raises ``ValueError`` when fewer than :func:`min_samples` values
    are given.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must lie in (0, 1), got {q}")
    n = len(values)
    if n < min_samples(q):
        raise ValueError(
            f"p{q * 100:g} needs >= {min_samples(q)} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    rank = math.ceil(q * n - 1e-9)
    return sorted(values)[rank - 1]


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def mean(values: list[float]) -> float:
    if not values:
        raise ValueError("mean of no samples")
    return statistics.fmean(values)
