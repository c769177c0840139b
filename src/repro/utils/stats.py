"""Small statistics helpers used by metrics aggregation and the benchmarks.

They take plain Python sequences (latencies over request lists, speedup
summaries) and return Python floats.  :func:`percentiles` also takes a float64
array, and selects the order statistics it needs with ``numpy.partition``
instead of sorting every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean. Raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("mean() of an empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values."""
    if not values:
        raise ValueError("geometric_mean() of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean() requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentiles(values: Sequence[float] | np.ndarray, pcts: Sequence[float]) -> list[float]:
    """Linear-interpolation percentiles (each pct in [0, 100]) as Python floats.

    Matches ``numpy.percentile`` with the default ``linear`` interpolation so
    that latency percentiles reported by the serving simulator are standard.
    Only the order statistics the percentiles need are selected (one
    ``numpy.partition`` over a float64 array), not a full sort; they are the
    values a sort would put at those ranks.
    """
    if len(values) == 0:
        raise ValueError("percentile() of an empty sequence")
    for pct in pcts:
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"pct must be within [0, 100], got {pct}")
    samples = np.asarray(values, dtype=np.float64)
    last = len(samples) - 1
    bounds = []
    for pct in pcts:
        rank = (pct / 100.0) * last
        bounds.append((rank, math.floor(rank), math.ceil(rank)))
    ranks = sorted({rank for _, low, high in bounds for rank in (low, high)})
    ordered = dict(zip(ranks, np.partition(samples, ranks)[ranks].tolist()))
    results = []
    for rank, low, high in bounds:
        if low == high:
            results.append(ordered[low])
        else:
            frac = rank - low
            results.append(ordered[low] * (1.0 - frac) + ordered[high] * frac)
    return results


def percentile(values: Sequence[float], pct: float) -> float:
    """One linear-interpolation percentile (pct in [0, 100]); see :func:`percentiles`."""
    return percentiles(values, (pct,))[0]


def median(values: Sequence[float]) -> float:
    """Median (P50)."""
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a distribution of samples."""

    count: int
    mean: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> Summary:
    """Build a :class:`Summary` from an iterable of samples."""
    samples = list(values)
    if not samples:
        raise ValueError("summarize() of an empty iterable")
    p50, p90, p99 = percentiles(samples, (50, 90, 99))
    return Summary(
        count=len(samples),
        mean=mean(samples),
        minimum=min(samples),
        p50=p50,
        p90=p90,
        p99=p99,
        maximum=max(samples),
    )
