"""Percentiles with a sample-count guard, and small summary helpers.

A median is only reported as valid with at least ten samples, and a
tail percentile ``q`` only with at least ten samples beyond it, i.e.
``n * (1 - q) >= 10``: a p95 needs 200.  An invalid percentile keeps its value (so the run can
still print it) but carries ``valid=False`` and is flagged wherever it is
shown; the runner refuses to emit a result built on one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

#: samples required for a median, and beyond a tail percentile
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample set, with the count behind it."""

    q: float
    value: float
    samples: int

    @property
    def required(self) -> int:
        return min_samples(self.q)

    @property
    def valid(self) -> bool:
        return self.samples >= self.required

    def describe(self, unit: str) -> str:
        flag = "" if self.valid else f"  INSUFFICIENT (needs n >= {self.required})"
        return f"{self.value:.4f} {unit} (n={self.samples}){flag}"


def min_samples(q: float) -> int:
    """Smallest valid sample count for the ``q`` quantile."""
    if q <= 0.5:
        return TAIL_SAMPLES
    return math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``nan`` when empty)."""
    if not values:
        return float("nan")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile(values: Iterable[float], q: float) -> Percentile:
    """The ``q`` quantile of ``values`` together with its sample count."""
    xs: List[float] = list(values)
    return Percentile(q, quantile(xs, q), len(xs))


def median_or_zero(values: Sequence[float]) -> float:
    """Median, or ``0.0`` for a layer that did no work."""
    return quantile(values, 0.5) if values else 0.0


def p95_or_zero(values: Sequence[float]) -> float:
    return quantile(values, 0.95) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or ``0.0`` when nothing was attempted."""
    return num / den if den else 0.0
