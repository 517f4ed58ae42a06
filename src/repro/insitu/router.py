"""Bandwidth-aware hybrid routing: in situ, in transit, or drop.

Each step, the :class:`HybridRouter` estimates the bytes the transport
would put on the wire (raw payload bytes over the EWMA-smoothed
compression ratio it has observed so far) and compares them to the
per-step wire budget in its :class:`RouterPolicy`:

- within budget           -> ``intransit``: compress and stream to
                             the endpoint group (the paper's path);
- over budget             -> ``insitu``: render on the simulation
                             ranks this step, keep the wire clear;
- far over budget, or no  -> ``drop``: record the decision and skip
  in situ pipeline wired     visualization for the step entirely.

Transitions are hysteretic: the router leaves the streaming route
only after ``hysteresis`` consecutive over-budget estimates and
returns only after the estimate has stayed under
``reentry_margin * budget`` just as long, so a single noisy step
cannot flap the fleet between routes.

Decisions must be *uniform across simulation ranks*: the SST reader
side pairs one payload per writer per stream step, so a partial put
(some ranks streaming a step that others skipped) would mis-assemble
every later step.  :class:`RoutedAnalysis` therefore allreduces the
measured byte counts and feeds every rank's router the same numbers —
identical inputs, identical EWMA state, identical route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.observe.session import get_telemetry
from repro.parallel.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor

__all__ = ["RouterPolicy", "RouteDecision", "HybridRouter", "RoutedAnalysis"]

ROUTES = ("insitu", "intransit", "drop")


@dataclass(frozen=True)
class RouterPolicy:
    """What the wire can take, and how reluctantly to switch routes.

    ``wire_budget_bytes`` is the group-aggregate compressed bytes one
    step may put on the wire.  ``drop_factor`` scales the budget to
    the point where even rendering in situ is abandoned for the step.
    """

    wire_budget_bytes: float = 32 * 2**20
    hysteresis: int = 2              # consecutive steps before switching
    reentry_margin: float = 0.8      # re-enter streaming below this x budget
    drop_factor: float = 8.0         # drop when estimate exceeds budget x this
    ratio_smoothing: float = 0.5     # EWMA weight of the newest observed ratio
    probe_interval: int = 16         # stream one step per this many parked ones

    def __post_init__(self):
        if self.wire_budget_bytes <= 0:
            raise ValueError("wire_budget_bytes must be positive")
        if self.hysteresis < 1:
            raise ValueError("hysteresis must be >= 1")
        if not 0 < self.reentry_margin <= 1:
            raise ValueError("reentry_margin must be in (0, 1]")
        if self.drop_factor < 1:
            raise ValueError("drop_factor must be >= 1")
        if not 0 < self.ratio_smoothing <= 1:
            raise ValueError("ratio_smoothing must be in (0, 1]")
        if self.probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")

    @classmethod
    def for_cluster(
        cls,
        cluster,
        num_sim_ranks: int,
        step_seconds: float,
        stream_fraction: float = 0.25,
        **kwargs,
    ) -> "RouterPolicy":
        """Budget from a machine model: the bytes `num_sim_ranks` can
        stream in `stream_fraction` of one `step_seconds` solver step
        without the wire becoming the bottleneck."""
        from repro.machine.netmodel import NetworkModel

        net = NetworkModel(cluster)
        budget = (
            num_sim_ranks * net.per_rank_bw_gbs * 1e9
            * step_seconds * stream_fraction
        )
        return cls(wire_budget_bytes=budget, **kwargs)


@dataclass(frozen=True)
class RouteDecision:
    """One step's routing verdict, as recorded and served at /routes."""

    step: int
    route: str
    raw_bytes: int
    est_wire_bytes: float
    ratio: float
    reason: str

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "route": self.route,
            "raw_bytes": self.raw_bytes,
            "est_wire_bytes": self.est_wire_bytes,
            "ratio": self.ratio,
            "reason": self.reason,
        }


class HybridRouter:
    """Per-step route chooser with hysteresis and live byte feedback.

    ``mode`` forces a route (``"insitu"`` / ``"intransit"``) or lets
    the budget decide (``"hybrid"``).  Feed :meth:`observe` the
    *allreduced* raw and wire byte counts after each streamed step so
    the compression-ratio estimate tracks the run; every rank must see
    the same numbers (see the module docstring).
    """

    def __init__(self, policy: RouterPolicy | None = None,
                 mode: str = "hybrid", insitu_available: bool = True):
        if mode not in ("hybrid", "insitu", "intransit"):
            raise ValueError(
                f"route mode must be hybrid, insitu or intransit, got {mode!r}"
            )
        self.policy = policy or RouterPolicy()
        self.mode = mode
        self.insitu_available = insitu_available
        self.ratio_ewma = 1.0        # until observed, assume incompressible
        self._ratio_observed = False
        self.raw_bytes_ewma = 0.0
        self._streaming = True       # current steady-state route
        self._over_streak = 0
        self._under_streak = 0
        self._parked_steps = 0       # steps since last streamed (for probes)
        self.route_counts = {r: 0 for r in ROUTES}
        self.decisions: deque[RouteDecision] = deque(maxlen=128)
        metrics = get_telemetry().metrics
        for route in ROUTES:
            metrics.counter(
                "repro_router_route_total",
                "Steps sent down each visualization route",
                {"route": route},
                read=lambda r=route: self.route_counts[r],
            )

    # -- feedback ------------------------------------------------------
    def observe(self, raw_bytes: int, wire_bytes: int) -> None:
        """Fold one streamed step's measured raw/wire bytes into the
        ratio estimate.  Call with group-aggregate (allreduced) counts."""
        if wire_bytes <= 0 or raw_bytes <= 0:
            return
        ratio = raw_bytes / wire_bytes
        if not self._ratio_observed:
            # the incompressible prior carries no information — the first
            # measurement replaces it instead of being halved by it
            self._ratio_observed = True
            self.ratio_ewma = ratio
            return
        a = self.policy.ratio_smoothing
        self.ratio_ewma = a * ratio + (1 - a) * self.ratio_ewma

    # -- decisions -----------------------------------------------------
    def decide(self, step: int, raw_bytes: int) -> RouteDecision:
        """Choose this step's route from the estimated wire bytes."""
        a = self.policy.ratio_smoothing
        self.raw_bytes_ewma = (
            a * raw_bytes + (1 - a) * self.raw_bytes_ewma
            if self.raw_bytes_ewma else float(raw_bytes)
        )
        est = raw_bytes / max(self.ratio_ewma, 1e-12)
        if self.mode == "intransit":
            decision = self._record(step, "intransit", raw_bytes, est, "forced")
        elif self.mode == "insitu":
            route = "insitu" if self.insitu_available else "drop"
            decision = self._record(step, route, raw_bytes, est, "forced")
        else:
            decision = self._decide_hybrid(step, raw_bytes, est)
        return decision

    def _decide_hybrid(self, step: int, raw_bytes: int,
                       est: float) -> RouteDecision:
        # the route reflects the state *entering* the step; streak
        # updates below only affect later steps, so a parked router
        # still streamed its first `hysteresis` over-budget steps and
        # learned the real compression ratio before giving up the wire
        budget = self.policy.wire_budget_bytes
        if self._streaming:
            decision = self._record(
                step, "intransit", raw_bytes, est, "within budget"
            )
        else:
            self._parked_steps += 1
            if self._parked_steps >= self.policy.probe_interval:
                # periodic probe: refresh the ratio estimate so a run
                # whose fields became compressible can re-enter streaming
                self._parked_steps = 0
                decision = self._record(step, "intransit", raw_bytes, est, "probe")
            elif est > budget * self.policy.drop_factor:
                decision = self._record(
                    step, "drop", raw_bytes, est, "over drop threshold"
                )
            elif self.insitu_available:
                decision = self._record(step, "insitu", raw_bytes, est, "over budget")
            else:
                decision = self._record(
                    step, "drop", raw_bytes, est, "no in situ pipeline"
                )
        if est > budget:
            self._over_streak += 1
            self._under_streak = 0
        elif est <= budget * self.policy.reentry_margin:
            self._under_streak += 1
            self._over_streak = 0
        else:
            # dead band between reentry margin and budget: hold course
            self._over_streak = 0
            self._under_streak = 0
        if self._streaming and self._over_streak >= self.policy.hysteresis:
            self._streaming = False
        elif not self._streaming and self._under_streak >= self.policy.hysteresis:
            self._streaming = True
            self._parked_steps = 0
        return decision

    def _record(self, step: int, route: str, raw_bytes: int, est: float,
                reason: str) -> RouteDecision:
        decision = RouteDecision(
            step=step, route=route, raw_bytes=int(raw_bytes),
            est_wire_bytes=float(est), ratio=self.ratio_ewma, reason=reason,
        )
        self.route_counts[route] += 1
        self.decisions.append(decision)
        return decision

    def stats(self) -> dict:
        """Snapshot for result extras and the /routes debug view."""
        return {
            "mode": self.mode,
            "wire_budget_bytes": self.policy.wire_budget_bytes,
            "ratio_ewma": self.ratio_ewma,
            "raw_bytes_ewma": self.raw_bytes_ewma,
            "streaming": self._streaming,
            "routes": dict(self.route_counts),
            "decisions": [d.as_dict() for d in self.decisions],
        }


class RoutedAnalysis(AnalysisAdaptor):
    """Route each bridge invocation through the hybrid router.

    Wraps the in transit transport (an ``ADIOSAnalysisAdaptor``) and,
    optionally, a simulation-side in situ analysis.  Raw byte counts
    are allreduced over `comm` before every decision and wire byte
    counts after every streamed step, keeping the router state — and
    hence the route — identical on every simulation rank.
    """

    def __init__(
        self,
        comm: Communicator,
        transit,                       # ADIOSAnalysisAdaptor
        router: HybridRouter,
        insitu: AnalysisAdaptor | None = None,
    ):
        self.comm = comm
        self.transit = transit
        self.router = router
        self.insitu = insitu
        if insitu is None:
            router.insitu_available = False
        self.streamed_steps = 0
        self.insitu_steps = 0
        self.dropped_steps = 0

    # the bridge's degradation layer reaches these through the wrapper
    @property
    def fault_log(self):
        return self.transit.fault_log

    def mark_transport_down(self) -> None:
        self.transit.mark_transport_down()

    def _raw_bytes(self, data) -> int:
        """Bytes this rank would stream: the requested point arrays."""
        mesh_name = self.transit.mesh_name
        mesh = data.get_mesh(mesh_name)
        total = 0
        for name in self.transit.arrays:
            data.add_array(mesh, mesh_name, "point", name)
        for block in mesh.blocks:
            if block is None:
                continue
            for name in self.transit.arrays:
                total += block.point_data[name].values.nbytes
        return total

    def execute(self, data) -> bool:
        step = data.get_data_time_step()
        raw_local = self._raw_bytes(data)
        raw_global = self.comm.allreduce(raw_local)
        decision = self.router.decide(step, raw_global)
        if decision.route == "intransit":
            # measure the codec's raw-vs-wire bytes for exactly this step;
            # the stats delta excludes frame headers and counts the raw
            # geometry blocks on both sides, so the ratio is never
            # dragged below 1 by the step-0 geometry send
            ctx = getattr(self.transit.engine, "codec_context", None)
            pre = (ctx.stats.raw_bytes, ctx.stats.wire_bytes) if ctx else None
            keep_going = self.transit.execute(data)
            if ctx is not None:
                raw_d = ctx.stats.raw_bytes - pre[0]
                wire_d = ctx.stats.wire_bytes - pre[1]
            else:
                raw_d = raw_local
                wire_d = getattr(self.transit.engine, "last_wire_bytes", 0)
            self.router.observe(
                self.comm.allreduce(raw_d), self.comm.allreduce(wire_d)
            )
            self.streamed_steps += 1
            return keep_going
        if decision.route == "insitu" and self.insitu is not None:
            self.insitu_steps += 1
            return bool(self.insitu.execute(data))
        self.dropped_steps += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.tracer.instant(
                "router.dropped", step=step, raw_bytes=raw_global,
                est_wire_bytes=decision.est_wire_bytes,
            )
        return True

    def finalize(self) -> None:
        # always close the transport: the endpoint group unblocks on the
        # writer-close sentinel even if nothing was ever streamed
        self.transit.finalize()
        if self.insitu is not None:
            self.insitu.finalize()
