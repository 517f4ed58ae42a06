"""Logical memory accounting: per-category high-water marks.

The paper's memory figures (aggregate HWM, Fig. 3; per-node footprint,
Fig. 6) are *logical* quantities — bytes the pipeline holds at its
choke points — not RSS.  A :class:`MemoryMeter` tracks exactly those:
instrumented allocation sites (``occa`` device buffers, SENSEI staging
mirrors, SST queue payloads, Catalyst framebuffers, solver state)
charge named categories, and the meter keeps the current level, the
per-category peak, and the true high-water mark of the summed total.

Two charging styles:

- ``allocate(cat, n)`` / ``free(cat, n)`` — delta accounting for
  sites with distinct alloc/release events (device buffers, queues);
- ``observe(cat, n)`` — level accounting for sites that already know
  their current occupancy (solver state, staging caches).

One meter per rank (see :mod:`repro.observe.session`); cross-rank
aggregation (the Fig. 3 sum) is a plain sum of per-rank peaks.
"""

from __future__ import annotations

import threading

__all__ = ["MemoryMeter", "NullMemoryMeter", "aggregate_peaks"]


class MemoryMeter:
    """Thread-safe logical-allocation tracker for one rank."""

    enabled = True

    def __init__(self, rank: int = 0):
        self.rank = rank
        self._current: dict[str, int] = {}
        self._peak: dict[str, int] = {}
        self._total_current = 0
        self.total_peak = 0
        self._lock = threading.Lock()

    # -- charging ------------------------------------------------------
    def allocate(self, category: str, nbytes: int) -> None:
        self._charge(category, int(nbytes))

    def free(self, category: str, nbytes: int) -> None:
        self._charge(category, -int(nbytes))

    def observe(self, category: str, nbytes: int) -> None:
        """Set a category's current level to `nbytes` (peak-tracked)."""
        with self._lock:
            delta = int(nbytes) - self._current.get(category, 0)
            self._apply(category, delta)

    def _charge(self, category: str, delta: int) -> None:
        with self._lock:
            self._apply(category, delta)

    def _apply(self, category: str, delta: int) -> None:
        level = self._current.get(category, 0) + delta
        if level < 0:
            # over-freeing is a bookkeeping bug upstream; clamp so the
            # meter stays sane rather than poisoning the totals
            delta -= level
            level = 0
        self._current[category] = level
        if level > self._peak.get(category, 0):
            self._peak[category] = level
        self._total_current += delta
        if self._total_current > self.total_peak:
            self.total_peak = self._total_current

    # -- queries -------------------------------------------------------

    def peaks(self) -> dict[str, int]:
        with self._lock:
            return dict(self._peak)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "rank": self.rank,
                "current": dict(self._current),
                "peak": dict(self._peak),
                "total_peak": self.total_peak,
                "sum_of_peaks": sum(self._peak.values()),
            }


class NullMemoryMeter:
    """No-op meter: the process default when telemetry is off."""

    enabled = False
    rank = 0
    total_peak = 0

    def allocate(self, category: str, nbytes: int) -> None: ...
    def free(self, category: str, nbytes: int) -> None: ...
    def observe(self, category: str, nbytes: int) -> None: ...

    def peaks(self) -> dict[str, int]:
        return {}

    def as_dict(self) -> dict:
        return {"rank": 0, "current": {}, "peak": {}, "total_peak": 0,
                "sum_of_peaks": 0}


def aggregate_peaks(meters) -> dict[str, int]:
    """Per-category sum of peaks across ranks (Fig. 3 aggregation)."""
    out: dict[str, int] = {}
    for meter in meters:
        for category, peak in meter.peaks().items():
            out[category] = out.get(category, 0) + peak
    return out
