"""repro.observe.live — the streaming telemetry plane.

:mod:`repro.observe` is post-hoc: spans and metrics merge after the
run.  This package makes the same signals visible *while the run is
in flight*, the regime the endpoint fleet and live serving work in:

- :mod:`~repro.observe.live.correlate` — ``(run_id, step, stream)``
  step tags and the seven-stage :class:`StepTimeline`
  (solve → marshal → wire → render → composite → encode → deliver);
- :mod:`~repro.observe.live.collector` — per-rank ring-buffer
  collectors with delta-snapshot flush; every stage event and wire
  mark enters the ring, and ring overflow is counted, not hidden;
- :mod:`~repro.observe.live.aggregate` — the streaming
  :class:`LiveAggregator`: rolling p50/p99 per stage, wire pairing,
  bytes on wire, windowed counts, retained step events;
- :mod:`~repro.observe.live.slo` — declarative SLO specs with
  burn-rate evaluation; alerts degrade ``/healthz`` and reach the
  steering bus as advisories;
- :mod:`~repro.observe.live.export` — payloads for ``/metrics``,
  ``/healthz``, ``/slo``, ``/timeline``, and the ``observe top``
  dashboard that renders them;
- :mod:`~repro.observe.live.plane` — :class:`LivePlane`, the facade
  that binds all of it to a :class:`TelemetrySession`.

See ``docs/observability.md`` ("Live telemetry").
"""

from repro.observe.live.aggregate import LiveAggregator, percentile
from repro.observe.live.collector import (
    NullLiveCollector,
    RingCollector,
    Snapshot,
    WireMark,
)
from repro.observe.live.correlate import (
    STAGES,
    StageEvent,
    StepTag,
    StepTimeline,
    build_timeline,
    mint_run_id,
)
from repro.observe.live.export import (
    healthz_payload,
    prometheus_text,
    render_top,
    slo_payload,
    timeline_payload,
)
from repro.observe.live.plane import LivePlane
from repro.observe.live.slo import (
    SLO_KINDS,
    Alert,
    SLOSpec,
    SLOWatchdog,
    default_slos,
)

__all__ = [
    "STAGES",
    "StepTag",
    "StageEvent",
    "StepTimeline",
    "build_timeline",
    "mint_run_id",
    "NullLiveCollector",
    "RingCollector",
    "Snapshot",
    "WireMark",
    "LiveAggregator",
    "percentile",
    "SLO_KINDS",
    "SLOSpec",
    "Alert",
    "SLOWatchdog",
    "default_slos",
    "LivePlane",
    "prometheus_text",
    "healthz_payload",
    "slo_payload",
    "timeline_payload",
    "render_top",
]
