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


class Timer:
    """A single start/stop wall timer."""

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed = 0.0

    def start(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError("timer already running")
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("timer not running")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    @property
    def running(self) -> bool:
        return self._start is not None

    def reset(self) -> None:
        self._start = None
        self.elapsed = 0.0
