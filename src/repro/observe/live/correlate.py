"""Step correlation: tags, stage events, and the StepTimeline.

Every in-flight step carries a ``(run_id, step, stream)`` tag.  The
tag is minted where the step is born (:meth:`repro.nekrs.solver.
NekRSSolver.step` records the ``solve`` stage under the active run
id), rides the step frame's attribute header (RBP2, or RBP3 under a
codec — the header is the same) as the ``corr`` attribute through
:class:`~repro.adios.engine.SSTBroker`, and every later hop —
endpoint render, frame publish, client delivery — records its stage
against the same ``(step, stream)`` key.  A hop records a stage by
tagging the span that already times it (``tracer.span(name, step=...,
stage=..., stream=...)``, see :mod:`repro.observe.tracer`), so a
:class:`StageEvent` is its span's interval on the session's clock.  The
:class:`~repro.observe.live.aggregate.LiveAggregator` groups those
:class:`StageEvent` records per step; :class:`StepTimeline` is the
reconstructed critical path.

The seven canonical stages, in pipeline order::

    solve -> marshal -> wire -> render -> composite -> encode -> deliver

``wire`` is special: no single rank observes it, so it is no span.  The
writer records a ``put`` mark when the payload lands in the broker
queue, the consumer records a ``got`` mark when it drains it (each
stamped by the recording collector), and the aggregator pairs the two
into one StageEvent — valid because every rank of the threaded SPMD
runtime reads the one clock the plane was given.

Stage seconds are *attributed*: overlapping intervals are swept and
each instant is charged to the most-downstream stage active at that
instant, so ``sum(attributed_seconds.values())`` is exactly the length
of the union of all stage intervals — structurally ``<=`` the step's
wall time.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

__all__ = [
    "STAGES",
    "STAGE_INDEX",
    "StepTag",
    "StageEvent",
    "StepTimeline",
    "build_timeline",
    "mint_run_id",
]

#: the canonical pipeline stages, in order
STAGES = ("solve", "marshal", "wire", "render", "composite", "encode", "deliver")
STAGE_INDEX = {name: i for i, name in enumerate(STAGES)}

_RUN_SEQ = itertools.count(1)
_RUN_SEQ_LOCK = threading.Lock()


def mint_run_id(label: str = "repro") -> str:
    """A process-unique run id, ``<label>-NNNN`` (deterministic order)."""
    with _RUN_SEQ_LOCK:
        return f"{label}-{next(_RUN_SEQ):04d}"


@dataclass(frozen=True)
class StepTag:
    """The correlation tag one step carries end to end."""

    run_id: str
    step: int
    stream: int

    def encode(self) -> str:
        """Wire form for the step frame's ``corr`` attribute."""
        return f"{self.run_id}:{self.step}:{self.stream}"

    @classmethod
    def decode(cls, text: str) -> "StepTag":
        run_id, step, stream = text.rsplit(":", 2)
        return cls(run_id=run_id, step=int(step), stream=int(stream))


@dataclass(frozen=True)
class StageEvent:
    """One stage interval observed on one rank for one step."""

    stage: str
    step: int
    t0: float
    t1: float
    rank: int = 0
    stream: int = -1

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "step": self.step,
            "t0": self.t0,
            "t1": self.t1,
            "rank": self.rank,
            "stream": self.stream,
        }


def _attribute(events) -> dict[str, float]:
    """Sweep the intervals; charge each instant to the latest active stage.

    Returns per-stage attributed seconds.  Any instant covered by two
    stages (e.g. stream 1 still marshaling while stream 0's payload is
    on the wire) counts once, toward the more downstream stage, so the
    total equals the union length of all intervals.
    """
    bounds = sorted({e.t0 for e in events} | {e.t1 for e in events})
    out = {s: 0.0 for s in STAGES}
    for lo, hi in zip(bounds, bounds[1:]):
        active = [
            STAGE_INDEX[e.stage] for e in events if e.t0 <= lo and e.t1 >= hi
        ]
        if active:
            out[STAGES[max(active)]] += hi - lo
    return {s: v for s, v in out.items() if v > 0.0}


@dataclass
class StepTimeline:
    """The reconstructed critical path of one simulation step."""

    run_id: str
    step: int
    events: tuple[StageEvent, ...] = ()
    _attributed: dict | None = field(default=None, repr=False, init=False)

    @property
    def stages(self) -> tuple[str, ...]:
        """Stages with at least one observed event, in pipeline order."""
        present = {e.stage for e in self.events}
        return tuple(s for s in STAGES if s in present)

    @property
    def complete(self) -> bool:
        """True when all seven canonical stages were observed."""
        return len(self.stages) == len(STAGES)

    @property
    def wall_start(self) -> float:
        return min(e.t0 for e in self.events)

    @property
    def wall_end(self) -> float:
        return max(e.t1 for e in self.events)

    @property
    def wall_seconds(self) -> float:
        """Whole-step wall: first solve start to last delivery end."""
        return self.wall_end - self.wall_start

    @property
    def attributed_seconds(self) -> dict[str, float]:
        """Per-stage seconds; sums to the union length (<= wall_seconds)."""
        if self._attributed is None:
            self._attributed = _attribute(self.events)
        return self._attributed

    def to_json(self) -> dict:
        att = self.attributed_seconds
        return {
            "run_id": self.run_id,
            "step": self.step,
            "complete": self.complete,
            "stages": list(self.stages),
            "wall_seconds": self.wall_seconds if self.events else 0.0,
            "attributed_seconds": att,
            "attributed_total": sum(att.values()),
            "events": [e.as_dict() for e in sorted(self.events, key=lambda e: e.t0)],
        }


def build_timeline(run_id: str, step: int, events) -> StepTimeline:
    """Assemble a timeline from this step's stage events (any order)."""
    good = tuple(e for e in events if e.stage in STAGE_INDEX and e.t1 >= e.t0)
    return StepTimeline(run_id=run_id, step=step, events=good)
