"""LiveAggregator: streaming merge of per-rank collector snapshots.

One aggregator per :class:`~repro.observe.live.plane.LivePlane`.
Collectors flush delta :class:`~repro.observe.live.collector.Snapshot`
objects each step; the aggregator folds them into

- **cumulative per-stage histograms** — each stage event's
  ``t1 - t0``, folded into the same mergeable
  :class:`~repro.observe.metrics.Histogram` (bucket counts + parallel
  Welford :class:`~repro.util.timing.TimingStats`) the post-hoc
  registry uses, so live and post-hoc numbers agree by construction;
- **rolling windows** — the last N durations per stage for exact
  p50/p99 over the recent past;
- **step event groups** — the raw :class:`StageEvent` records keyed by
  simulation step, from which :func:`~repro.observe.live.correlate.
  build_timeline` reconstructs a :class:`StepTimeline` on demand
  (bounded: the oldest step is evicted past :data:`RETAIN_STEPS`);
- **wire pairing** — writer ``put`` marks and consumer ``got`` marks
  meet here (the two halves arrive in different ranks' snapshots) and
  become the ``wire`` stage plus the bytes-on-wire gauge;
- **windowed counts** — timestamped count deltas (retries, publish
  stalls, ...) pruned to a horizon, so the SLO watchdog can evaluate
  burn rates over its rolling window.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from repro.observe.live.correlate import (
    STAGES,
    StageEvent,
    StepTimeline,
    build_timeline,
)
from repro.observe.metrics import Histogram

__all__ = ["LiveAggregator", "percentile"]

#: stage-latency buckets: sub-ms render hops to multi-second solves
STAGE_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

_MAX_PENDING_MARKS = 4096

#: durations per stage in the rolling p50/p99 window
WINDOW = 256
#: newest steps whose events are kept for timelines
RETAIN_STEPS = 512
#: how long timestamped counts stay visible to the SLO windows
HORIZON_S = 60.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a small sample (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


class LiveAggregator:
    """Merges rank/endpoint snapshots into rolling live state."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self._clock = clock
        self._lock = threading.Lock()
        self.stage_hist: dict[str, Histogram] = {}
        self._windows: dict[str, deque] = {}
        self._step_events: dict[int, list[StageEvent]] = {}
        self._pending_puts: dict[tuple[int, int], object] = {}
        self._pending_gots: dict[tuple[int, int], object] = {}
        self.counts: dict[str, float] = {}
        self._count_events: dict[str, deque] = {}
        self.bytes_put = 0
        self.bytes_got = 0
        self.last_frame: dict[str, tuple[int, float]] = {}
        self.snapshots = 0
        self.events_seen = 0
        self.dropped_events = 0
        self.ranks_seen: set[int] = set()

    # -- ingest --------------------------------------------------------
    def ingest(self, snapshot) -> None:
        now = self._clock()
        with self._lock:
            self.snapshots += 1
            self.ranks_seen.add(snapshot.rank)
            self.dropped_events += snapshot.dropped
            for event in snapshot.events:
                self._add_event_locked(event)
            for mark in snapshot.wire_marks:
                self._pair_wire_locked(mark)
            for name, n in snapshot.counts.items():
                self.counts[name] = self.counts.get(name, 0) + n
                if name == "wire_put_bytes":
                    self.bytes_put += int(n)
                elif name == "wire_got_bytes":
                    self.bytes_got += int(n)
                else:
                    log = self._count_events.setdefault(name, deque())
                    log.append((now, n))
            self._prune_counts_locked(now)

    def _add_event_locked(self, event: StageEvent) -> None:
        self.events_seen += 1
        hist = self.stage_hist.get(event.stage)
        if hist is None:
            hist = self.stage_hist[event.stage] = Histogram(
                f"repro_live_stage_{event.stage}_seconds",
                buckets=STAGE_BUCKETS,
            )
        seconds = event.seconds
        hist.observe(seconds)
        self._windows.setdefault(event.stage, deque(maxlen=WINDOW)).append(seconds)
        self._step_events.setdefault(event.step, []).append(event)
        while len(self._step_events) > RETAIN_STEPS:
            self._step_events.pop(min(self._step_events))

    def _pair_wire_locked(self, mark) -> None:
        key = (mark.step, mark.stream)
        if mark.kind == "put":
            other = self._pending_gots.pop(key, None)
            if other is None:
                self._pending_puts[key] = mark
                self._trim_pending_locked(self._pending_puts)
                return
            put, got = mark, other
        else:
            other = self._pending_puts.pop(key, None)
            if other is None:
                self._pending_gots[key] = mark
                self._trim_pending_locked(self._pending_gots)
                return
            put, got = other, mark
        # the shared plane clock makes the cross-rank interval
        # meaningful; attribute it to the consumer rank
        self._add_event_locked(
            StageEvent(stage="wire", step=put.step, t0=put.t,
                       t1=max(got.t, put.t), rank=got.rank, stream=put.stream)
        )

    @staticmethod
    def _trim_pending_locked(pending: dict) -> None:
        while len(pending) > _MAX_PENDING_MARKS:
            pending.pop(next(iter(pending)))

    def _prune_counts_locked(self, now: float) -> None:
        cutoff = now - HORIZON_S
        for log in self._count_events.values():
            while log and log[0][0] < cutoff:
                log.popleft()

    # -- direct signals ------------------------------------------------
    def note_frame(self, stream: str, step: int, t: float) -> None:
        with self._lock:
            self.last_frame[stream] = (step, t)

    # -- queries -------------------------------------------------------
    @property
    def bytes_on_wire(self) -> int:
        return max(self.bytes_put - self.bytes_got, 0)

    def window_values(self, stage: str) -> list[float]:
        """The rolling window of recent durations for one stage."""
        with self._lock:
            return list(self._windows.get(stage, ()))

    def window_stats(self, stage: str) -> dict:
        with self._lock:
            values = list(self._windows.get(stage, ()))
            hist = self.stage_hist.get(stage)
            total = hist.stats.count if hist is not None else 0
        return {
            "count": total,
            "window": len(values),
            "p50_s": percentile(values, 50),
            "p99_s": percentile(values, 99),
            "max_s": max(values) if values else 0.0,
        }

    def count_in_window(self, name: str, now: float | None = None,
                        window_s: float = 30.0) -> float:
        now = self._clock() if now is None else now
        with self._lock:
            log = self._count_events.get(name, ())
            return sum(n for t, n in log if t >= now - window_s)

    def frame_staleness(self, now: float | None = None) -> dict[str, float]:
        now = self._clock() if now is None else now
        with self._lock:
            return {s: now - t for s, (_step, t) in self.last_frame.items()}

    def steps(self) -> list[int]:
        with self._lock:
            return sorted(self._step_events)

    def timeline(self, step: int) -> StepTimeline | None:
        with self._lock:
            events = self._step_events.get(step)
            if events is None:
                return None
            events = tuple(events)
        return build_timeline(self.run_id, step, events)

    def latest_timeline(self) -> StepTimeline | None:
        """The newest *complete* timeline (falls back to the newest)."""
        candidates = self.steps()
        newest = None
        for step in reversed(candidates):
            tl = self.timeline(step)
            if newest is None:
                newest = tl
            if tl is not None and tl.complete:
                return tl
        return newest

    def summary(self) -> dict:
        stages = {
            stage: self.window_stats(stage)
            for stage in STAGES
            if stage in self.stage_hist
        }
        with self._lock:
            counts = dict(self.counts)
            retained = len(self._step_events)
        return {
            "run_id": self.run_id,
            "snapshots": self.snapshots,
            "ranks": sorted(self.ranks_seen),
            "events": self.events_seen,
            "dropped_events": self.dropped_events,
            "steps_retained": retained,
            "stages": stages,
            "counts": counts,
            "bytes_on_wire": self.bytes_on_wire,
            "bytes_put": self.bytes_put,
            "bytes_got": self.bytes_got,
            "frame_staleness_s": self.frame_staleness(),
        }
