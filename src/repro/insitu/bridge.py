"""The bridge: embedding SENSEI into the simulation (paper Listing 3).

The bridge owns the DataAdaptor and the ConfigurableAnalysis, stamps
time/step onto the adaptor each timestep, invokes the analyses, and
releases per-step staging afterwards.  Attach :meth:`Bridge.observer`
to :meth:`NekRSSolver.run` and the simulation is instrumented — the
entire integration surface, as in the paper.

Listing 3's initialize / update / finalize are ``Bridge(...)``,
:meth:`Bridge.update` and :meth:`Bridge.finalize`.

Fault tolerance: when the analysis side is an in-transit transport and
it fails past the retry budget (:class:`TransportError`), the bridge
*degrades* instead of crashing the solver — configurable via
``fallback``: ``"raise"`` (seed behavior), ``"checkpoint"`` (write the
raw state locally, the paper's file-staged degraded mode), or
``"drop"`` (skip the analysis step).  The simulation keeps
time-stepping either way — in situ must never cost the solver its run.
"""

from __future__ import annotations

from pathlib import Path

from repro.faults.errors import TransportError
from repro.faults.injector import FaultLog
from repro.insitu.adaptor import NekDataAdaptor
from repro.nekrs.solver import NekRSSolver, StepReport
from repro.observe.session import get_telemetry
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.configurable import ConfigurableAnalysis
from repro.util.logging import get_logger

_FALLBACKS = ("raise", "checkpoint", "drop")


class Bridge:
    def __init__(
        self,
        solver: NekRSSolver,
        analysis: AnalysisAdaptor | None = None,
        config_xml: str | None = None,
        output_dir: str | Path = ".",
        samples_per_element: int | None = None,
        fallback: str = "raise",
        fallback_dir: str | Path | None = None,
    ):
        if (analysis is None) == (config_xml is None):
            raise ValueError("provide exactly one of analysis= or config_xml=")
        if fallback not in _FALLBACKS:
            raise ValueError(f"fallback must be one of {_FALLBACKS}, got {fallback!r}")
        self.solver = solver
        self.adaptor = NekDataAdaptor(solver, samples_per_element)
        if analysis is None:
            analysis = ConfigurableAnalysis(solver.comm, config_xml, output_dir)
        self.analysis = analysis
        self.invocations = 0
        self.stop_requested = False
        self.fallback = fallback
        self.fallback_dir = Path(fallback_dir) if fallback_dir is not None else Path(
            output_dir
        ) / "fallback"
        self.fault_log = getattr(analysis, "fault_log", None) or FaultLog()
        self.degraded_steps = 0
        self.fallback_bytes = 0
        self.transport_down = False
        self._log = get_logger("repro.insitu.bridge", solver.comm)
        metrics = get_telemetry().metrics
        metrics.counter(
            "repro_bridge_invocations_total", "Bridge analysis invocations",
            read=lambda: self.invocations,
        )
        metrics.counter(
            "repro_bridge_degraded_steps_total",
            "Steps served by the degraded fallback path",
            read=lambda: self.degraded_steps,
        )

    def update(self, step: int, time: float) -> bool:
        """Offer the current state to the analyses; False = stop."""
        self.adaptor.set_data_time_step(step)
        self.adaptor.set_data_time(time)
        # the seconds the solver spends blocked here are this span's
        with get_telemetry().tracer.span("bridge.execute", step=step):
            try:
                keep_going = self.analysis.execute(self.adaptor)
            except TransportError as exc:
                keep_going = self._degrade(step, time, exc)
            finally:
                self.adaptor.release_data()
        self.invocations += 1
        if not keep_going:
            self.stop_requested = True
        return keep_going

    def _degrade(self, step: int, time: float, exc: TransportError) -> bool:
        """Handle a transport failure past the retry budget."""
        if self.fallback == "raise":
            raise exc
        if not self.transport_down:
            self.transport_down = True
            self._log.warning(
                "transport failed at step %d (%s: %s); degrading to %r",
                step, type(exc).__name__, exc, self.fallback,
            )
            # stop peers from burning their retry budgets on a dead endpoint
            mark_down = getattr(self.analysis, "mark_transport_down", None)
            if mark_down is not None:
                mark_down()
        # the endpoint crash (if one was injected) resolves as "degraded"
        # exactly once; later degraded steps are clamped to no-ops
        self.fault_log.try_resolve("endpoint_crash", "degraded")
        self.degraded_steps += 1
        get_telemetry().tracer.instant(
            "bridge.degraded", step=step, fallback=self.fallback,
            error=type(exc).__name__,
        )
        if self.fallback == "checkpoint":
            self._write_fallback_checkpoint(step, time)
        return True

    def _write_fallback_checkpoint(self, step: int, time: float) -> None:
        from repro.nekrs.checkpoint import write_checkpoint

        solver = self.solver
        fields = {
            "pressure": solver.p,
            "velocity_x": solver.u,
            "velocity_y": solver.v,
            "velocity_z": solver.w,
        }
        _, nbytes = write_checkpoint(
            self.fallback_dir,
            solver.case.name,
            step,
            time,
            solver.comm.rank,
            solver.comm.size,
            fields,
        )
        self.fallback_bytes += nbytes

    def observer(self, solver: NekRSSolver, report: StepReport) -> bool:
        """Adapter for ``NekRSSolver.run(observer=...)``.

        Propagates the analyses' keep-going verdict, so a stop request
        (guard trip, steering command) halts the solver loop at this
        step boundary on every rank.
        """
        return self.update(report.step, report.time)

    def finalize(self) -> None:
        try:
            self.analysis.finalize()
        except TransportError as exc:
            if self.fallback == "raise":
                raise
            self._log.warning("transport failed during finalize: %s", exc)
