"""FleetEndpoint: one endpoint rank's poll/render loop.

An endpoint owns no writer stream statically: every loop iteration it
heartbeats, polls the shared
:class:`~repro.fleet.coordinator.FleetCoordinator` for a directive or
a fully assembled :class:`~repro.fleet.work.RenderTask`, and feeds the
task through its private sink.  With nothing to do it rests inside
the coordinator (:meth:`FleetCoordinator.rest`) on the broker's
condition until an event can give it work.

Each endpoint gets its **own** :class:`~repro.parallel.comm.
SerialCommunicator`-backed analysis (no collectives across the
endpoint group), so a crashed member cannot strand peers inside a
barrier — the property that makes mid-run joins and leaves safe.
Output does not depend on which member rendered a step because every
artifact is keyed by (step, block) or (name, step), never by the rank
that produced it.

Crash injection: the loop consults the injector *before* each poll
and, when ``endpoint_crash`` fires, simply stops — no leave, no drain
— so the lease lapses and peers must detect the loss the hard way.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.fleet.coordinator import Directive, FleetCoordinator
from repro.fleet.work import RenderTask
from repro.observe.session import get_telemetry
from repro.parallel.comm import SerialCommunicator


@dataclass
class EndpointReport:
    """Per-endpoint outcome of a fleet run."""

    eid: int
    steps: int = field(default=0, init=False)   # tasks committed by this endpoint
    crashed: bool = field(default=False, init=False)
    idle_polls: int = field(default=0, init=False)
    wall_seconds: float = field(default=0.0, init=False)
    recv_bytes: int = field(default=0, init=False)
    staging_peak: int = field(default=0, init=False)
    empty_tasks: int = field(default=0, init=False)


class AnalysisSink:
    """Feeds assembled render tasks through one SENSEI analysis.

    The sink owns a single-rank adaptor + analysis pair.  Streams
    rebalance between endpoints mid-run, so before consuming a task it
    installs the geometry payload of any writer this sink has not seen
    yet (replayed from the coordinator's CRC-checked cache).
    """

    def __init__(self, analysis_factory):
        # deferred: repro.insitu imports repro.fleet for the runner's
        # endpoint loop, so a module-level import here would be circular
        from repro.insitu.streamed import StreamedDataAdaptor

        self.comm = SerialCommunicator(channel="fleet")
        self.adaptor = StreamedDataAdaptor(self.comm)
        self.analysis = analysis_factory(self.comm)
        self._seen_writers: set[int] = set()
        self.recv_bytes = 0
        self.staging_peak = 0

    def process(self, task: RenderTask, coordinator: FleetCoordinator) -> bool:
        for writer in task.payloads:
            if writer in self._seen_writers:
                continue
            geometry = coordinator.geometry(writer)
            if geometry is not None:
                self.adaptor.install_geometry(geometry)
            self._seen_writers.add(writer)
        ordered = dict(sorted(task.payloads.items()))
        if not self.adaptor.consume(ordered):
            return False
        self.staging_peak = max(self.staging_peak, self.adaptor.staged_bytes)
        self.recv_bytes += self.adaptor.staged_bytes
        self.analysis.execute(self.adaptor)
        self.adaptor.release_data()
        return True

    def finalize(self) -> None:
        self.analysis.finalize()


class FleetEndpoint:
    """The loop one endpoint rank runs for the whole fleet session."""

    def __init__(
        self,
        eid: int,
        coordinator: FleetCoordinator,
        sink: AnalysisSink,
        injector=None,
    ):
        self.eid = eid
        self.coordinator = coordinator
        self.sink = sink
        self.injector = injector

    def run(self) -> EndpointReport:
        coord = self.coordinator
        report = EndpointReport(eid=self.eid)
        t0 = _time.perf_counter()
        coord.join(self.eid)
        while True:
            if self.injector is not None:
                crash = self.injector.maybe(
                    "endpoint_crash", "fleet.loop", report.steps, key=self.eid
                )
                if crash is not None:
                    # die in place: no depart(), no drain — the lease
                    # lapses and a peer's poll declares us dead
                    get_telemetry().tracer.instant(
                        "fault.endpoint_crash", step=report.steps,
                        endpoint=self.eid,
                    )
                    report.crashed = True
                    break
            out = coord.poll(self.eid)
            if out is Directive.STOP:
                break
            if out is Directive.IDLE:
                report.idle_polls += 1
                coord.rest(self.eid)
                continue
            try:
                if self.sink.process(out, coord):
                    report.steps += 1
                else:
                    report.empty_tasks += 1
                coord.commit(self.eid, out)
            except BaseException:
                # peers keep a task holder's lease alive, so a member
                # that dies with a task in hand has to say so itself
                coord.fail(self.eid)
                raise
        if not report.crashed:
            coord.depart(self.eid)
            self.sink.finalize()
        report.wall_seconds = _time.perf_counter() - t0
        report.recv_bytes = self.sink.recv_bytes
        report.staging_peak = self.sink.staging_peak
        return report
