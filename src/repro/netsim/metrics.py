"""Summary statistics for experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    count: int
    mean: float
    median: float
    p10: float
    p90: float
    p99: float
    minimum: float
    maximum: float
    stdev: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p10": self.p10,
            "p90": self.p90,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
            "stdev": self.stdev,
        }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values, q in [0, 1]."""
    if len(sorted_values) == 0:
        return float("nan")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def summarize(values: Sequence[float]) -> Summary:
    """Count, mean, percentiles, range and sample stdev of ``values``
    (a sequence or a float array)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if not n:
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan, nan)
    mean = float(ordered.mean())
    # Sample variance (Bessel's correction): these are always summaries of
    # a sample of simulated handshakes, never the full population. A
    # single observation has no spread estimate; report 0.0.
    deviations = ordered - mean
    deviations *= deviations
    var = float(deviations.sum()) / (n - 1) if n > 1 else 0.0
    return Summary(
        count=n,
        mean=mean,
        median=float(percentile(ordered, 0.5)),
        p10=float(percentile(ordered, 0.1)),
        p90=float(percentile(ordered, 0.9)),
        p99=float(percentile(ordered, 0.99)),
        minimum=float(ordered[0]),
        maximum=float(ordered[-1]),
        stdev=math.sqrt(var),
    )
