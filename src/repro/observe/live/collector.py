"""Per-rank ring-buffer collectors.

Each rank's :class:`~repro.observe.session.Telemetry` bundle carries a
``live`` slot.  By default it holds the shared no-op
:class:`NullLiveCollector`, so uninstrumented runs pay one attribute
load per call site.  When a :class:`~repro.observe.live.plane.
LivePlane` is attached to a session, every rank gets a
:class:`RingCollector`: a bounded ring of stage events and wire marks
plus named counts, drained as a delta :class:`Snapshot` at step
boundaries (``solve`` on simulation ranks, ``deliver`` on endpoints)
or when the ring half-fills.  No call site records a stage by hand:
:meth:`RingCollector.stage` is fed by the rank's
:class:`~repro.observe.tracer.Tracer` when a span tagged ``stage=``
exits, with the span's own two clock reads.  The slot serves what is
not an interval — wire marks, named counts, frame freshness.

Every stage event and wire mark enters the ring; one that finds it
full is counted in the snapshot's ``dropped`` and lost.  The
aggregator derives stage latencies from the events themselves, so a
stage has one record.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.observe.live.correlate import StageEvent

__all__ = ["NullLiveCollector", "RingCollector", "Snapshot", "WireMark"]

#: events + wire marks a rank may hold between flushes
CAPACITY = 1024


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
    counts: dict = field(default_factory=dict)      # name -> n
    dropped: int = 0                   # events lost to ring overflow


class NullLiveCollector:
    """No-op live slot: the default on every Telemetry bundle."""

    __slots__ = ()

    enabled = False
    run_id = ""

    def wire_mark(self, kind, step, stream, nbytes=0) -> None: ...
    def event(self, name) -> None: ...
    def note_frame(self, stream, step, t) -> None: ...
    def flush(self) -> None: ...


class RingCollector:
    """One rank's live recorder: bounded ring + delta-snapshot flush."""

    enabled = True

    def __init__(self, plane, rank: int, clock=time.perf_counter):
        self._plane = plane
        self.rank = rank
        self._clock = clock
        self._lock = threading.Lock()
        self._events: list = []
        self._wire_marks: list = []
        self._counts: dict[str, float] = {}
        self._dropped = 0
        self._seq = 0

    @property
    def run_id(self) -> str:
        return self._plane.run_id

    # -- recording -----------------------------------------------------
    def _push_locked(self, item, ring: list) -> bool:
        """Append to `ring`; True once the ring is half full."""
        held = len(self._events) + len(self._wire_marks)
        if held >= CAPACITY:
            self._dropped += 1
        else:
            ring.append(item)
            held += 1
        return held >= CAPACITY // 2

    def stage(self, name: str, step: int, t0: float, t1: float,
              stream: int = -1) -> None:
        """Record one canonical stage interval for (step, stream)."""
        event = StageEvent(stage=name, step=step, t0=t0, t1=t1,
                           rank=self.rank, stream=stream)
        with self._lock:
            full = self._push_locked(event, self._events)
        if name in ("solve", "deliver") or full:
            self.flush()

    def wire_mark(self, kind: str, step: int, stream: int,
                  nbytes: int = 0) -> None:
        """Record one wire half, stamped now; the aggregator pairs put/got."""
        mark = WireMark(kind=kind, step=step, stream=stream, t=self._clock(),
                        nbytes=nbytes, rank=self.rank)
        key = f"wire_{kind}_bytes"
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + nbytes
            self._push_locked(mark, self._wire_marks)

    def event(self, name: str) -> None:
        """Bump a named live count (retry, publish_stall, ...) by one."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1

    def note_frame(self, stream: str, step: int, t: float) -> None:
        """Freshness signal: a frame for `stream` published at `t`."""
        self._plane.note_frame(stream, step, t)

    # -- flushing ------------------------------------------------------
    def flush(self) -> None:
        """Drain the delta since the last flush into the plane."""
        with self._lock:
            if not (self._events or self._wire_marks or self._counts
                    or self._dropped):
                return
            snap = Snapshot(
                rank=self.rank,
                seq=self._seq,
                events=tuple(self._events),
                wire_marks=tuple(self._wire_marks),
                counts=self._counts,
                dropped=self._dropped,
            )
            self._seq += 1
            self._events = []
            self._wire_marks = []
            self._counts = {}
            self._dropped = 0
        self._plane.ingest(snap)
