"""Wall-clock timing helpers.

The evaluation reports total elapsed time (Fig. 2) and mean time per
timestep (Fig. 5).  ``TimingStats`` summarizes repeated samples
(mean/min/max/std) the way the in transit experiment reports
per-timestep means, and is the mergeable summary behind every
``repro.observe`` histogram.  Named phases of a run are not timed here:
a phase is a ``tel.tracer.span(...)`` (see :mod:`repro.observe.tracer`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass


@dataclass
class TimingStats:
    """Streaming summary statistics over time samples (Welford)."""

    count: int = 0
    total: float = 0.0
    _min: float = math.inf
    _max: float = -math.inf
    _mean: float = 0.0
    _m2: float = 0.0

    def add(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        self._min = min(self._min, sample)
        self._max = max(self._max, sample)
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)

    @property
    def min(self) -> float:
        """Smallest sample; 0.0 when empty (never the inf sentinel)."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        """Largest sample; 0.0 when empty (never the -inf sentinel)."""
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "TimingStats") -> "TimingStats":
        """Combine two summaries (parallel Welford merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self._min = other._min
            self._max = other._max
            self._mean = other._mean
            self._m2 = other._m2
            return self
        n = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / n
        self._mean = (self.count * self._mean + other.count * other._mean) / n
        self.count = n
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "std": self.std,
        }


def seconds_of(fn) -> float:
    """Seconds of one ``fn()`` call.

    A callable that returns a plain ``float`` reports its *own*
    measured seconds (per-rank CPU, machine-modeled time); anything
    else is timed wall-clock here.
    """
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    return out if type(out) is float else elapsed


def interleaved_pairs(first, second, pairs: int) -> list[tuple[float, float]]:
    """:func:`seconds_of` ``first()`` and ``second()``, alternately,
    `pairs` times.

    Two variants of one workload are compared pair by pair (ratio or
    difference of adjacent runs, then the median over pairs), never
    block against block: a load or frequency shift mid-measurement hits
    both halves of a pair alike, and a scheduler spike moves one pair,
    not the median.
    """
    return [(seconds_of(first), seconds_of(second)) for _ in range(pairs)]
