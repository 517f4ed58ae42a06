"""LivePlane: the facade tying collectors, aggregator, SLOs together.

Attach one to a :class:`~repro.observe.session.TelemetrySession` and
every rank the session creates (or has created) gets a
:class:`~repro.observe.live.collector.RingCollector` on its
``Telemetry.live`` slot::

    session = TelemetrySession("fleet-run")
    plane = LivePlane(session, bus=steering_bus)
    runner = InTransitRunner(..., session=session)
    run_spmd(ranks, runner.run)
    for tl in plane.timelines():
        print(tl.step, tl.attributed_seconds)

The plane is the single ingest point: each collector flush lands here,
feeds the :class:`~repro.observe.live.aggregate.LiveAggregator`, runs
one :class:`~repro.observe.live.slo.SLOWatchdog` burn-rate pass over
the :func:`~repro.observe.live.slo.default_slos`, and
maintains the live plane's own ``repro_live_*`` / ``repro_slo_*``
metrics (merged with the session's registries for ``/metrics``).

Fleet integration: the :class:`~repro.fleet.coordinator.
FleetCoordinator` calls :meth:`crash_detected` when an unplanned loss
is reaped (fires the recovery-time alert and finalizes the dead rank's
trace track), and :meth:`recovery_complete` when the replay drains.
"""

from __future__ import annotations

import time

from repro.observe.live.aggregate import LiveAggregator
from repro.observe.live.collector import RingCollector
from repro.observe.live.correlate import StepTimeline, mint_run_id
from repro.observe.live.slo import SLOWatchdog
from repro.observe.metrics import MetricsRegistry

__all__ = ["LivePlane"]


class LivePlane:
    """One run's streaming telemetry plane."""

    def __init__(self, session, bus=None, clock=time.perf_counter):
        self.session = session
        self.run_id = mint_run_id(session.label)
        self._clock = clock
        self.aggregator = LiveAggregator(self.run_id, clock=clock)
        self.watchdog = SLOWatchdog(bus=bus, clock=clock)
        #: live-plane-only metrics, merged into /metrics alongside the
        #: session's per-rank registries
        self.registry = MetricsRegistry(labels={"plane": "live"})
        self.started_at = clock()
        # adopt the session: ranks created from now on bind automatically
        session.live = self
        for tel in session.telemetries():
            self.bind(tel)

    # -- collector lifecycle -------------------------------------------
    def bind(self, tel) -> RingCollector:
        """Give one Telemetry bundle its live collector (idempotent)."""
        live = getattr(tel, "live", None)
        if isinstance(live, RingCollector) and live._plane is self:
            return live
        collector = RingCollector(self, tel.rank, clock=self._clock)
        # call sites reach it through the slot, tagged spans through the tracer
        tel.live = tel.tracer.live = collector
        return collector

    def flush_all(self) -> None:
        """Drain every rank's pending delta (end of run, export time)."""
        for tel in self.session.telemetries():
            if isinstance(tel.live, RingCollector):
                tel.live.flush()

    # -- the ingest point ----------------------------------------------
    def ingest(self, snapshot) -> None:
        self.aggregator.ingest(snapshot)
        fired = self.watchdog.evaluate(self.aggregator)
        reg = self.registry
        reg.counter(
            "repro_live_snapshots_total", "Collector snapshots ingested"
        ).inc()
        if snapshot.events:
            reg.counter(
                "repro_live_events_total", "Live stage events ingested"
            ).inc(len(snapshot.events))
        if snapshot.dropped:
            reg.counter(
                "repro_live_dropped_events_total",
                "Live events lost to collector ring overflow",
            ).inc(snapshot.dropped)
        if fired:
            reg.counter(
                "repro_slo_alerts_total", "SLO watchdog alerts fired"
            ).inc(len(fired))
        reg.gauge(
            "repro_live_wire_backlog_bytes",
            "Marshaled step bytes put but not yet drained", agg="max",
        ).set(self.aggregator.bytes_on_wire)

    def note_frame(self, stream: str, step: int, t: float) -> None:
        self.aggregator.note_frame(stream, step, t)

    # -- correlation ---------------------------------------------------
    def timeline(self, step: int) -> StepTimeline | None:
        return self.aggregator.timeline(step)

    def timelines(self) -> list[StepTimeline]:
        """Every retained step's timeline, complete or not."""
        return [
            tl for tl in (
                self.aggregator.timeline(s) for s in self.aggregator.steps()
            ) if tl is not None
        ]

    # -- fleet hooks ---------------------------------------------------
    def crash_detected(self, eid: int, rank_hint: int | None = None) -> None:
        """Unplanned endpoint loss: fire the recovery SLO, close the track."""
        self.watchdog.recovery_started(eid)
        if rank_hint is not None:
            self.session.finalize_rank(rank_hint)

    def recovery_complete(self, eid: int, seconds: float) -> None:
        self.watchdog.recovery_finished(eid, seconds)

    # -- exports -------------------------------------------------------
    @property
    def uptime_s(self) -> float:
        return self._clock() - self.started_at

    def merged_metrics(self) -> MetricsRegistry:
        merged = self.session.merged_metrics()
        merged.merge(self.registry)
        # the aggregator's per-stage latency histograms live outside any
        # rank registry (they merge cross-rank snapshots); fold them in
        # so /metrics exposes repro_live_stage_*_seconds
        for hist in list(self.aggregator.stage_hist.values()):
            merged.histogram(
                hist.name, hist.help, hist.buckets
            ).merge_from(hist)
        return merged

    def prometheus(self) -> str:
        return self.merged_metrics().to_prometheus()
