"""Telemetry wiring: per-rank bundles, thread-local activation, sessions.

A :class:`Telemetry` bundles the three instruments (tracer, metrics
registry, memory meter) for one rank.  Instrumented code never takes a
telemetry parameter; it calls :func:`get_telemetry`, which reads a
*thread-local* slot, set by :func:`active` — the natural scope under
the threaded SPMD runtime, where each rank body runs entirely in its
own thread.  When nothing is active, a process-wide no-op bundle is
returned, so uninstrumented runs pay only a thread-local lookup plus
no-op calls.

A :class:`TelemetrySession` owns one :class:`Telemetry` per rank and
the merged views: per-span totals (:meth:`TelemetrySession.span_total`,
where every reported duration is read), Chrome trace JSON across all
rank tracks, cross-rank-merged Prometheus/JSON metrics, per-rank
memory peaks and their Fig. 3-style aggregate, and the flame summary.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.observe.live.collector import NullLiveCollector
from repro.observe.memory import MemoryMeter, NullMemoryMeter, aggregate_peaks
from repro.observe.metrics import MetricsRegistry, NullMetricsRegistry
from repro.observe.tracer import (
    NullTracer,
    SpanEvent,
    Tracer,
    chrome_trace,
    flame_summary,
)

__all__ = [
    "Telemetry",
    "TelemetrySession",
    "get_telemetry",
    "active",
]


#: shared no-op live collector; a LivePlane swaps in a real one per rank
_NULL_LIVE = NullLiveCollector()


class Telemetry:
    """One rank's instrument bundle."""

    def __init__(self, tracer, metrics, memory, rank: int = 0, enabled: bool = True):
        self.tracer = tracer
        self.metrics = metrics
        self.memory = memory
        self.rank = rank
        self.enabled = enabled
        #: live-plane slot (see :mod:`repro.observe.live`) for wire
        #: marks, counts and freshness; stage intervals reach the same
        #: collector through ``tracer.live`` from spans tagged ``stage=``
        self.live = _NULL_LIVE

    @classmethod
    def create(cls, rank: int = 0, clock=time.perf_counter) -> "Telemetry":
        return cls(
            tracer=Tracer(rank=rank, clock=clock),
            metrics=MetricsRegistry(labels={"rank": str(rank)}),
            memory=MemoryMeter(rank=rank),
            rank=rank,
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(
            tracer=NullTracer(),
            metrics=NullMetricsRegistry(),
            memory=NullMemoryMeter(),
            enabled=False,
        )


#: process-wide no-op default, shared by every uninstrumented thread
_NULL = Telemetry.disabled()

class _ObserveLocal(threading.local):
    # class attribute = per-thread default; the arena hits this on
    # every borrow/release, so skip getattr(..., default)
    telemetry = None


_tls = _ObserveLocal()


def get_telemetry() -> Telemetry:
    """The calling thread's telemetry (no-op bundle when none is active)."""
    tel = _tls.telemetry
    return tel if tel is not None else _NULL


@contextmanager
def active(telemetry: Telemetry):
    """Scope `telemetry` to a with-block (restores the previous one)."""
    previous = getattr(_tls, "telemetry", None)
    _tls.telemetry = telemetry
    try:
        yield telemetry
    finally:
        _tls.telemetry = previous


class TelemetrySession:
    """Per-rank telemetry for one run, plus the merged exports."""

    def __init__(self, label: str = "repro", clock=time.perf_counter):
        self.label = label
        self._clock = clock
        self._by_rank: dict[int, Telemetry] = {}
        self._finalized: set[int] = set()
        self._lock = threading.Lock()
        #: attached :class:`~repro.observe.live.plane.LivePlane`, if any
        #: (set by the plane itself; new ranks bind to it on creation)
        self.live = None

    # -- per-rank handles ----------------------------------------------
    def rank(self, rank: int) -> Telemetry:
        """Get or create the bundle for `rank`.

        Creation is lazy, so a fleet member that joins mid-run gets a
        fresh track whose epoch is its join time — the pre-join gap
        never appears as idle span time in the merged trace.
        """
        with self._lock:
            tel = self._by_rank.get(rank)
            created = tel is None
            if created:
                tel = self._by_rank[rank] = Telemetry.create(rank, clock=self._clock)
            live = self.live
        if created and live is not None:
            live.bind(tel)
        return tel

    @contextmanager
    def activate(self, rank: int):
        """Install rank `rank`'s telemetry for the calling thread."""
        with active(self.rank(rank)) as tel:
            yield tel

    @property
    def ranks(self) -> list[int]:
        with self._lock:
            return sorted(self._by_rank)

    def telemetries(self) -> list[Telemetry]:
        with self._lock:
            return [self._by_rank[r] for r in sorted(self._by_rank)]

    # -- membership churn ----------------------------------------------
    def finalize_rank(self, rank: int) -> bool:
        """Close rank `rank`'s track at detection time (dead endpoint).

        Records one ``track.finalized`` instant on the track, so the
        merged trace shows when the member was declared lost rather
        than letting its track dangle.  Idempotent: a repeat call
        records nothing more.  Returns False for a rank this session
        never saw.
        """
        with self._lock:
            tel = self._by_rank.get(rank)
            if tel is None:
                return False
            if rank in self._finalized:
                return True
            self._finalized.add(rank)
        tel.tracer.instant("track.finalized", rank=rank)
        return True

    # -- merged views --------------------------------------------------
    def events(self) -> list:
        out = []
        for tel in self.telemetries():
            out.extend(tel.tracer.events)
        return sorted(out, key=lambda e: e.ts)

    def span_total(self, name: str, rank: int | None) -> tuple[int, float]:
        """Count and summed seconds of the spans called `name` on rank
        `rank`'s track, or on every track for ``rank=None``: the one
        place a run's durations are read from."""
        durs = [
            e.dur
            for tel in self.telemetries()
            if rank is None or tel.rank == rank
            for e in tel.tracer.events
            if isinstance(e, SpanEvent) and e.name == name
        ]
        return len(durs), sum(durs)

    def chrome_trace(self) -> dict:
        return chrome_trace(self.events(), process_name=self.label)

    def flame_summary(self) -> str:
        return flame_summary(self.events(), title=f"{self.label} — span summary")

    def merged_metrics(self) -> MetricsRegistry:
        merged = MetricsRegistry()
        for tel in self.telemetries():
            merged.merge(tel.metrics)
        return merged

    def to_prometheus(self) -> str:
        return self.merged_metrics().to_prometheus()

    def memory_by_rank(self) -> dict[int, dict[str, int]]:
        return {tel.rank: tel.memory.peaks() for tel in self.telemetries()}

    def memory_aggregate(self) -> dict[str, int]:
        """Per-category peak bytes summed over ranks (Fig. 3 style)."""
        return aggregate_peaks(tel.memory for tel in self.telemetries())

    def memory_aggregate_total(self) -> int:
        return sum(self.memory_aggregate().values())

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "ranks": self.ranks,
            "metrics": self.merged_metrics().to_json(),
            "memory": {
                "per_rank": {str(r): p for r, p in self.memory_by_rank().items()},
                "aggregate": self.memory_aggregate(),
                "aggregate_total": self.memory_aggregate_total(),
            },
        }

    # -- file exports --------------------------------------------------
    def write_chrome_trace(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
        return path

    def write_prometheus(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_prometheus())
        return path

    def write_json(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))
        return path
