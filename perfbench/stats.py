"""Order statistics for the harness: medians, quartiles, supported tails.

Every figure the benchmark prints is a median with its quartiles and a
sample count; a tail percentile is only reported when at least
:data:`BEYOND` samples lie beyond it, so a p99 over 300 samples is never
passed off as a measurement.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A percentile is reportable only with this many samples beyond it.
BEYOND = 10

#: The tail ladder, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


@dataclass(frozen=True)
class Sample:
    """One reported metric: a median-like value with its spread."""

    value: float
    unit: str
    n: int = 1
    q1: float | None = None
    q3: float | None = None

    def as_json(self) -> dict:
        out = {"value": self.value, "unit": self.unit, "n": self.n}
        if self.q1 is not None:
            out["q1"], out["q3"] = self.q1, self.q3
        return out


def percentile(ordered, p: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not len(ordered):
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def supported_percentile(count: int) -> float:
    """The highest ladder percentile with :data:`BEYOND` samples past it.

    ``count * (1 - p/100) >= BEYOND``: 1000 samples support p99 (ten
    beyond), 999 only p90.  Below twenty samples even the median has
    fewer than ten on each side; it is still returned, the sample count
    printed next to it says what it is worth.
    """
    best = LADDER[0]
    for p in LADDER:
        # compare in integers: 0.01 * 1000 is 10.000000000000002 and
        # 0.001 * 10000 is 9.99..., neither of which is the intent
        if count * round((100.0 - p) * 100) >= BEYOND * 10000:
            best = p
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); the inclusive method, defined from two values."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(values, unit: str) -> Sample:
    """Median of ``values`` with quartiles and count."""
    q1, median, q3 = quartiles(values)
    return Sample(median, unit, len(values), q1, q3)


def spread(values) -> float:
    """Interquartile range over median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail(ordered, wanted: float) -> float:
    """The ``wanted`` percentile of an ascending sequence — or the highest
    one the sample count supports, when that is lower."""
    return percentile(ordered, min(wanted, supported_percentile(len(ordered))))
