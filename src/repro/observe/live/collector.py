"""Per-rank ring-buffer collectors and the adaptive overhead sampler.

Each rank's :class:`~repro.observe.session.Telemetry` bundle carries a
``live`` slot.  By default it holds the shared no-op
:class:`NullLiveCollector`, so uninstrumented runs pay one attribute
load per call site.  When a :class:`~repro.observe.live.plane.
LivePlane` is attached to a session, every rank gets a
:class:`RingCollector`: a bounded event ring plus per-stage duration
buffers and named counts, drained as a delta :class:`Snapshot` at step
boundaries (``solve`` on simulation ranks, ``deliver`` on endpoints)
or when the ring half-fills.  No call site records a stage by hand:
:meth:`RingCollector.stage` is fed by the rank's
:class:`~repro.observe.tracer.Tracer` when a span tagged ``stage=``
exits, with the span's own two clock reads.  The slot serves what is
not an interval — wire marks, named counts, frame freshness.  The plane
feeds each snapshot to the streaming aggregator and charges its
measured recording cost to the :class:`AdaptiveSampler`.

The sampler is the overhead governor: it compares recording cost to
wall time per flush window and degrades detail when the ratio blows
the budget —

- level 0 ``stage`` — the seven canonical stages (and the wire
  put/got marks that build the ``wire`` stage) enter the ring;
- level 1 ``counters`` — nothing enters the ring; only durations and
  counts flow, so SLO evaluation keeps working while timelines stop.

Recovery is hysteretic: the level steps back up only after `patience`
consecutive calm windows, so a borderline run doesn't flap.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.observe.live.correlate import StageEvent

__all__ = [
    "AdaptiveSampler",
    "NullLiveCollector",
    "RingCollector",
    "Snapshot",
    "WireMark",
    "LEVEL_STAGE",
    "LEVEL_COUNTERS",
    "LEVEL_NAMES",
]

LEVEL_STAGE = 0
LEVEL_COUNTERS = 1
LEVEL_NAMES = ("stage", "counters")

#: max retained durations per stage per flush window (keeps a snapshot
#: bounded even if a rank goes a long time between flushes)
_MAX_DURATIONS = 256


class AdaptiveSampler:
    """Steps span detail down when telemetry cost exceeds its budget."""

    def __init__(
        self,
        budget: float = 0.05,
        min_wall_s: float = 1e-4,
        upgrade_margin: float = 0.25,
        patience: int = 3,
    ):
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.budget = budget
        self.min_wall_s = min_wall_s
        self.upgrade_margin = upgrade_margin
        self.patience = patience
        self.level = LEVEL_STAGE
        self.downgrades = 0
        self.upgrades = 0
        self.last_ratio = 0.0
        self._calm = 0
        self._lock = threading.Lock()

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]

    def update(self, cost_s: float, wall_s: float) -> int:
        """Fold one flush window's (cost, wall) in; returns the level."""
        if wall_s < self.min_wall_s:
            return self.level
        ratio = cost_s / wall_s
        with self._lock:
            self.last_ratio = ratio
            if ratio > self.budget:
                self._calm = 0
                if self.level < LEVEL_COUNTERS:
                    self.level += 1
                    self.downgrades += 1
            elif ratio < self.budget * self.upgrade_margin:
                self._calm += 1
                if self._calm >= self.patience and self.level > LEVEL_STAGE:
                    self.level -= 1
                    self.upgrades += 1
                    self._calm = 0
            else:
                self._calm = 0
            return self.level

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "level_name": self.level_name,
            "budget": self.budget,
            "last_ratio": self.last_ratio,
            "downgrades": self.downgrades,
            "upgrades": self.upgrades,
        }


@dataclass(frozen=True)
class WireMark:
    """Half of a cross-rank wire interval (``put`` or ``got``)."""

    kind: str               # "put" | "got"
    step: int
    stream: int
    t: float
    nbytes: int
    rank: int = 0


@dataclass(frozen=True)
class Snapshot:
    """One delta flush from one rank's collector."""

    rank: int
    seq: int
    events: tuple = ()                 # StageEvent
    wire_marks: tuple = ()             # WireMark
    durations: dict = field(default_factory=dict)   # stage -> [seconds]
    counts: dict = field(default_factory=dict)      # name -> n
    dropped: int = 0                   # events lost to ring overflow


class NullLiveCollector:
    """No-op live slot: the default on every Telemetry bundle."""

    __slots__ = ()

    enabled = False
    run_id = ""

    def wire_mark(self, kind, step, stream, nbytes=0) -> None: ...
    def event(self, name, n=1) -> None: ...
    def note_frame(self, stream, step, t) -> None: ...
    def flush(self) -> None: ...


class RingCollector:
    """One rank's live recorder: bounded ring + delta-snapshot flush."""

    enabled = True

    def __init__(self, plane, rank: int, capacity: int = 1024,
                 clock=time.perf_counter):
        self._plane = plane
        self.rank = rank
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._events: list = []
        self._wire_marks: list = []
        self._durations: dict[str, list[float]] = {}
        self._counts: dict[str, float] = {}
        self._dropped = 0
        self._seq = 0
        self._cost_s = 0.0
        self._last_flush_t = clock()
        self.flushes = 0
        self.dropped_total = 0

    @property
    def run_id(self) -> str:
        return self._plane.run_id

    # -- recording -----------------------------------------------------
    def _push_locked(self, item, ring: list) -> None:
        if len(self._events) + len(self._wire_marks) >= self.capacity:
            self._dropped += 1
            self.dropped_total += 1
            return
        ring.append(item)

    def stage(self, name: str, step: int, t0: float, t1: float,
              stream: int = -1) -> None:
        """Record one canonical stage interval for (step, stream)."""
        c0 = self._clock()
        with self._lock:
            durs = self._durations.setdefault(name, [])
            if len(durs) < _MAX_DURATIONS:
                durs.append(t1 - t0)
            if self._plane.sampler.level == LEVEL_STAGE:
                self._push_locked(
                    StageEvent(stage=name, step=step, t0=t0, t1=t1,
                               rank=self.rank, stream=stream),
                    self._events,
                )
            full = len(self._events) + len(self._wire_marks) >= self.capacity // 2
            self._cost_s += self._clock() - c0
        if name in ("solve", "deliver") or full:
            self.flush()

    def wire_mark(self, kind: str, step: int, stream: int,
                  nbytes: int = 0) -> None:
        """Record one wire half, stamped now; the aggregator pairs put/got."""
        c0 = self._clock()
        with self._lock:
            key = f"wire_{kind}_bytes"
            self._counts[key] = self._counts.get(key, 0) + nbytes
            if self._plane.sampler.level == LEVEL_STAGE:
                self._push_locked(
                    WireMark(kind=kind, step=step, stream=stream, t=c0,
                             nbytes=nbytes, rank=self.rank),
                    self._wire_marks,
                )
            self._cost_s += self._clock() - c0

    def event(self, name: str, n: float = 1) -> None:
        """Bump a named live count (retry, publish_stall, ...)."""
        c0 = self._clock()
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n
            self._cost_s += self._clock() - c0

    def note_frame(self, stream: str, step: int, t: float) -> None:
        """Freshness signal: a frame for `stream` published at `t`."""
        self._plane.note_frame(stream, step, t)

    # -- flushing ------------------------------------------------------
    def flush(self) -> None:
        """Drain the delta since the last flush into the plane."""
        c0 = self._clock()
        with self._lock:
            if not (self._events or self._wire_marks or self._durations
                    or self._counts or self._dropped):
                return
            snap = Snapshot(
                rank=self.rank,
                seq=self._seq,
                events=tuple(self._events),
                wire_marks=tuple(self._wire_marks),
                durations=self._durations,
                counts=self._counts,
                dropped=self._dropped,
            )
            self._seq += 1
            self._events = []
            self._wire_marks = []
            self._durations = {}
            self._counts = {}
            self._dropped = 0
            now = self._clock()
            cost = self._cost_s + (now - c0)
            self._cost_s = 0.0
            wall = now - self._last_flush_t
            self._last_flush_t = now
            self.flushes += 1
        self._plane.ingest(snap, cost_s=cost, wall_s=wall)
