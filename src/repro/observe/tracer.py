"""Per-rank tracing spans with Chrome trace-event export.

A :class:`Tracer` records nested, wall-clock spans — the one interval
primitive of the stack::

    with tracer.span("solver.step", step=n, stage="solve", stream=rank):
        with tracer.span("solver.pressure"):
            ...

A span tagged ``stage=`` *is* a pipeline stage: when a
:class:`~repro.observe.live.plane.LivePlane` is attached, the span's
exit hands the same two clock reads it records as a :class:`SpanEvent`
to the rank's live collector as a ``StageEvent`` for ``(step,
stream)``, so the trace and the live ``StepTimeline`` cannot disagree.

Each rank owns its own tracer (see :mod:`repro.observe.session`), so
recording is contention-free under the threaded SPMD runtime; the
per-tracer lock only matters when an export runs concurrently with the
run.  All tracers of one session share its clock (``time.perf_counter``
by default), so spans from different ranks line up on a common
timeline when merged.

Exports:

- :func:`chrome_trace` — the Chrome trace-event JSON format (``ph``,
  ``ts``, ``dur``, ``pid``, ``tid``) viewable in Perfetto or
  ``chrome://tracing``; one track (``tid``) per rank;
- :meth:`Tracer.span_totals` / :func:`flame_summary` — a plain-text
  flame view: total/self seconds per nested span path.

The default tracer of an uninstrumented run is :class:`NullTracer`,
whose ``span``/``instant`` are allocation-free no-ops — the overhead
guard test in ``tests/test_observe_integration.py`` pins this down.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "SpanEvent",
    "InstantEvent",
    "Tracer",
    "NullTracer",
    "chrome_trace",
    "flame_summary",
    "validate_nesting",
]


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: a named interval on one rank's track."""

    name: str
    path: str          # "/"-joined ancestry, e.g. "solver.step/solver.pressure"
    ts: float          # start, seconds on the session's shared clock
    dur: float         # duration, seconds
    rank: int
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (fault, retry, degradation, ...)."""

    name: str
    ts: float
    rank: int
    args: dict = field(default_factory=dict)


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the process default when tracing is off."""

    enabled = False
    rank = 0

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **args) -> None:
        return None

    @property
    def events(self) -> list:
        return []


class _Span:
    """Live span handle; records a :class:`SpanEvent` on exit."""

    __slots__ = ("_tracer", "name", "args", "_t0", "_path")

    def __init__(self, tracer: "Tracer", name: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._t0 = 0.0
        self._path = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            self._path = f"{stack[-1]}/{self.name}"
        stack.append(self._path)
        self._t0 = tracer._clock()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        now = tracer._clock()
        tracer._stack().pop()
        args = self.args
        tracer._record(
            SpanEvent(
                name=self.name,
                path=self._path,
                ts=self._t0,
                dur=now - self._t0,
                rank=tracer.rank,
                args=args,
            )
        )
        live = tracer.live
        if live is not None and "stage" in args:
            live.stage(
                args["stage"], args["step"], self._t0, now,
                args.get("stream", -1),
            )
        return False


class Tracer:
    """Collects spans and instants for one rank.

    `clock` is injectable for deterministic tests; it must be
    monotonic and shared by every tracer that will be merged.
    """

    enabled = True

    def __init__(self, rank: int = 0, clock=time.perf_counter):
        self.rank = rank
        self._clock = clock
        self._events: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.epoch = clock()
        #: the rank's live collector, set by ``LivePlane.bind``; spans
        #: tagged ``stage=`` feed it on exit
        self.live = None

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, event) -> None:
        with self._lock:
            self._events.append(event)

    def span(self, name: str, **args) -> _Span:
        """Context manager timing a named, nestable region."""
        return _Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration marker at the current time."""
        self._record(InstantEvent(name=name, ts=self._clock(), rank=self.rank, args=args))

    # -- access --------------------------------------------------------
    @property
    def events(self) -> list:
        with self._lock:
            return list(self._events)

    def span_totals(self) -> dict[str, dict]:
        """Aggregate spans by nested path: count / total / self seconds."""
        spans = [e for e in self.events if isinstance(e, SpanEvent)]
        return _aggregate(spans)

    def chrome_trace(self) -> dict:
        return chrome_trace(self.events)


# -- aggregation / export ----------------------------------------------------


def _aggregate(spans: list[SpanEvent]) -> dict[str, dict]:
    totals: dict[str, dict] = {}
    for e in spans:
        agg = totals.setdefault(e.path, {"count": 0, "total": 0.0, "self": 0.0})
        agg["count"] += 1
        agg["total"] += e.dur
        agg["self"] += e.dur
    # self time = total minus direct children's total
    for path, agg in totals.items():
        parent = path.rsplit("/", 1)[0] if "/" in path else None
        if parent is not None and parent in totals:
            totals[parent]["self"] -= agg["total"]
    return totals


def flame_summary(events, title: str = "span summary") -> str:
    """Plain-text flame view of span totals, merged across ranks."""
    spans = [e for e in events if isinstance(e, SpanEvent)]
    totals = _aggregate(spans)
    if not totals:
        return f"{title}: no spans recorded"
    width = max(len(p.rsplit("/", 1)[-1]) + 2 * p.count("/") for p in totals) + 2
    lines = [title, f"{'span':<{width}} {'count':>7} {'total [ms]':>12} {'self [ms]':>12}"]
    # lexicographic sort on path components = depth-first tree order
    for path in sorted(totals, key=lambda p: p.split("/")):
        agg = totals[path]
        depth = path.count("/")
        label = "  " * depth + path.rsplit("/", 1)[-1]
        lines.append(
            f"{label:<{width}} {agg['count']:>7} "
            f"{agg['total'] * 1e3:>12.3f} {agg['self'] * 1e3:>12.3f}"
        )
    return "\n".join(lines)


def chrome_trace(events, process_name: str = "repro") -> dict:
    """Convert events (possibly from many ranks) to Chrome trace JSON.

    One process (``pid`` 0) with one thread track (``tid``) per rank.
    Spans become complete ``"X"`` events with microsecond ``ts``/``dur``
    relative to the earliest event; instants become ``"i"`` events.
    """
    events = list(events)
    ranks = sorted({e.rank for e in events})
    base = min((e.ts for e in events), default=0.0)
    trace_events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for rank in ranks:
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": 0,
                "tid": rank,
                "args": {"sort_index": rank},
            }
        )
    for e in sorted(events, key=lambda e: e.ts):
        if isinstance(e, SpanEvent):
            trace_events.append(
                {
                    "ph": "X",
                    "name": e.name,
                    "cat": "repro",
                    "ts": (e.ts - base) * 1e6,
                    "dur": e.dur * 1e6,
                    "pid": 0,
                    "tid": e.rank,
                    "args": dict(e.args),
                }
            )
        else:
            trace_events.append(
                {
                    "ph": "i",
                    "name": e.name,
                    "cat": "repro",
                    "ts": (e.ts - base) * 1e6,
                    "s": "t",
                    "pid": 0,
                    "tid": e.rank,
                    "args": dict(e.args),
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_nesting(trace: dict) -> None:
    """Raise ValueError unless every track's ``X`` events nest properly.

    Used by the export tests: for each ``tid``, span intervals must
    either be disjoint or fully contained in one another (allowing for
    shared endpoints) — the invariant Perfetto relies on to stack them.
    """
    by_tid: dict[int, list[tuple[float, float, str]]] = {}
    for ev in trace["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        by_tid.setdefault(ev["tid"], []).append(
            (ev["ts"], ev["ts"] + ev["dur"], ev["name"])
        )
    for tid, spans in by_tid.items():
        stack: list[tuple[float, float, str]] = []
        for start, end, name in sorted(spans, key=lambda s: (s[0], -(s[1] - s[0]))):
            while stack and start >= stack[-1][1]:
                stack.pop()
            if stack and end > stack[-1][1]:
                raise ValueError(
                    f"track {tid}: span {name!r} [{start}, {end}] overlaps "
                    f"{stack[-1][2]!r} [{stack[-1][0]}, {stack[-1][1]}] "
                    "without nesting"
                )
            stack.append((start, end, name))
