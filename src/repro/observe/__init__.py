"""Unified telemetry: tracing spans, metrics, and memory accounting.

The observability layer the paper's whole evaluation implicitly
depends on (wall time, time per step, memory high-water marks) made
first-class:

- :mod:`repro.observe.tracer` — nested per-rank spans with Chrome
  trace-event JSON export (Perfetto / ``chrome://tracing``) and a
  plain-text flame summary;
- :mod:`repro.observe.metrics` — counters / gauges / fixed-bucket
  histograms, merged across ranks via Communicator reductions,
  exported as Prometheus text or JSON;
- :mod:`repro.observe.memory` — logical allocation high-water marks
  per category (device buffers, SENSEI staging, SST queues, Catalyst
  framebuffers, solver state);
- :mod:`repro.observe.session` — per-rank bundles behind a
  thread-local :func:`get_telemetry`, no-op by default so
  uninstrumented runs are unaffected.

Typical use::

    session = TelemetrySession("my-run")

    def body(comm):
        with session.activate(comm.rank):
            ...  # instrumented stack records into this rank's bundle

    run_spmd(4, body)
    session.write_chrome_trace("trace.json")
    print(session.to_prometheus())

See ``docs/observability.md`` and ``python -m repro trace``.
"""

from repro.observe.memory import MemoryMeter, NullMemoryMeter, aggregate_peaks
from repro.observe.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    naming_violations,
)
from repro.observe.session import (
    Telemetry,
    TelemetrySession,
    active,
    get_telemetry,
)
from repro.observe.tracer import (
    InstantEvent,
    NullTracer,
    SpanEvent,
    Tracer,
    chrome_trace,
    flame_summary,
    validate_nesting,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
    "naming_violations",
    "MemoryMeter",
    "NullMemoryMeter",
    "aggregate_peaks",
    "Telemetry",
    "TelemetrySession",
    "active",
    "get_telemetry",
    "Tracer",
    "NullTracer",
    "SpanEvent",
    "InstantEvent",
    "chrome_trace",
    "flame_summary",
    "validate_nesting",
]
