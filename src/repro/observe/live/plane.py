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
feeds the :class:`~repro.observe.live.aggregate.LiveAggregator`,
charges the measured recording cost to the
:class:`~repro.observe.live.collector.AdaptiveSampler`, runs one
:class:`~repro.observe.live.slo.SLOWatchdog` burn-rate pass, and
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
from repro.observe.live.collector import (
    LEVEL_NAMES,
    AdaptiveSampler,
    RingCollector,
)
from repro.observe.live.correlate import StepTag, StepTimeline, mint_run_id
from repro.observe.live.slo import SLOWatchdog
from repro.observe.metrics import MetricsRegistry

__all__ = ["LivePlane"]


class LivePlane:
    """One run's streaming telemetry plane."""

    def __init__(
        self,
        session,
        run_id: str | None = None,
        slos=None,
        overhead_budget: float = 0.05,
        bus=None,
        window: int = 256,
        retain_steps: int = 512,
        horizon_s: float = 60.0,
        capacity: int = 1024,
        clock=time.perf_counter,
    ):
        self.session = session
        self.run_id = run_id if run_id is not None else mint_run_id(session.label)
        self._clock = clock
        self._capacity = capacity
        self.sampler = AdaptiveSampler(budget=overhead_budget)
        self.aggregator = LiveAggregator(
            self.run_id, window=window, retain_steps=retain_steps,
            horizon_s=horizon_s, clock=clock,
        )
        self.watchdog = SLOWatchdog(specs=slos, bus=bus, clock=clock)
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
        collector = RingCollector(
            self, tel.rank, capacity=self._capacity, clock=self._clock
        )
        # call sites reach it through the slot, tagged spans through the tracer
        tel.live = tel.tracer.live = collector
        return collector

    def collectors(self) -> list[RingCollector]:
        return [
            tel.live for tel in self.session.telemetries()
            if isinstance(getattr(tel, "live", None), RingCollector)
        ]

    def flush_all(self) -> None:
        """Drain every rank's pending delta (end of run, export time)."""
        for collector in self.collectors():
            collector.flush()

    # -- the ingest point ----------------------------------------------
    def ingest(self, snapshot, cost_s: float = 0.0, wall_s: float = 0.0) -> None:
        self.aggregator.ingest(snapshot)
        self.sampler.update(cost_s, wall_s)
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
            "repro_live_sampler_level",
            "Adaptive sampler level (0 stage, 1 counters)",
        ).set(self.sampler.level)
        reg.gauge(
            "repro_live_overhead_ratio",
            "Measured telemetry cost over wall time, last flush window",
        ).set(self.sampler.last_ratio)
        reg.gauge(
            "repro_live_wire_backlog_bytes",
            "Marshaled step bytes put but not yet drained", agg="max",
        ).set(self.aggregator.bytes_on_wire)

    def note_frame(self, stream: str, step: int, t: float) -> None:
        self.aggregator.note_frame(stream, step, t)

    # -- correlation ---------------------------------------------------
    def tag(self, step: int, stream: int) -> StepTag:
        return StepTag(run_id=self.run_id, step=step, stream=stream)

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

    def healthz(self) -> dict:
        active = len(self.watchdog.active)
        return {
            "status": "degraded" if active else "ok",
            "run_id": self.run_id,
            "uptime_s": self._clock() - self.started_at,
            "ranks": sorted(self.aggregator.ranks_seen),
            "steps_retained": len(self.aggregator.steps()),
            "alerts_active": active,
            "sampler_level": LEVEL_NAMES[self.sampler.level],
        }

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "sampler": self.sampler.as_dict(),
            "summary": self.aggregator.summary(),
            "slo": self.watchdog.to_json(),
        }
