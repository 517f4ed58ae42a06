"""In transit orchestration: simulation group + SENSEI endpoint group.

Reproduces the paper's Section 4.2 topology: the rank group splits
into simulation ranks and endpoint ranks at a configurable ratio (the
paper uses 4:1), an SST stream connects them, and every endpoint rank
is a member of one :mod:`repro.fleet`, polling the shared
:class:`~repro.fleet.FleetCoordinator` for assembled steps.  The
paper's static N:1 split is the fleet: every endpoint active from the
start, membership changing only on failure or planned leave.  The
endpoint runs a SENSEI data consumer in one of three measurement
modes:

- ``none``        — No Transport: SENSEI runtime loaded, no analysis
                    adaptor enabled, nothing streamed;
- ``checkpoint``  — the endpoint writes pressure+velocity as VTU files;
- ``catalyst``    — the endpoint renders two images per received step.

The key property the paper highlights — simulation memory independent
of visualization resources — holds by construction here too: the
simulation side stages at most ``queue_limit`` marshaled steps.
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.adios.engine import SSTBroker, SSTWriterEngine
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.fleet import (
    AnalysisSink,
    FleetConfig,
    FleetCoordinator,
    FleetEndpoint,
)
from repro.codec import CodecSpec
from repro.insitu.bridge import Bridge
from repro.insitu.router import HybridRouter, RoutedAnalysis, RouterPolicy
from repro.nekrs.solver import NekRSSolver
from repro.observe.session import TelemetrySession
from repro.occa import Device
from repro.parallel.comm import Communicator
from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor
from repro.sensei.analyses.adios_adaptor import ADIOSAnalysisAdaptor
from repro.sensei.analyses.posthoc_io import VTKPosthocIO
from repro.catalyst.pipeline import RenderPipeline, RenderSpec

_MODES = ("none", "checkpoint", "catalyst")
_ROUTES = ("insitu", "intransit", "hybrid")


@dataclass
class InTransitResult:
    """Per-rank outcome of an in transit run."""

    role: str                  # "simulation" | "endpoint"
    rank: int                  # rank within its subgroup
    steps: int = 0
    wall_seconds: float = 0.0
    mean_step_seconds: float = 0.0
    stream_bytes: int = 0
    memory_bytes: int = 0
    staging_bytes: int = 0
    files_bytes: int = field(default=0, init=False)   # endpoint VTU/PNG output
    images: int = field(default=0, init=False)
    extra: dict = field(default_factory=dict)


class InTransitRunner:
    """Drives one full in transit run inside an SPMD group.

    Use as the body of :func:`repro.parallel.run_spmd`::

        runner = InTransitRunner(case_builder, mode="catalyst", ...)
        results = run_spmd(10, runner.run)
    """

    def __init__(
        self,
        case_builder,                  # fn(num_sim_ranks) -> CaseDefinition
        mode: str = "catalyst",
        ratio: int = 4,                # sim ranks per endpoint rank
        num_steps: int | None = None,
        stream_interval: int = 1,
        arrays: tuple[str, ...] = ("pressure", "velocity_magnitude"),
        queue_limit: int = 2,
        queue_full_policy: str = "Block",
        output_dir: str | Path = "intransit_out",
        samples_per_element: int | None = None,
        device_mode: str = "cuda-sim",
        image_size: int = 256,
        contour_isovalue: float = 0.0,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        fallback: str = "checkpoint",
        session: TelemetrySession | None = None,
        fleet: FleetConfig | None = None,
        codec: CodecSpec | None = None,
        route: str = "intransit",
        router_policy: RouterPolicy | None = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if ratio < 1:
            raise ValueError("ratio must be >= 1")
        if stream_interval < 1:
            raise ValueError("stream_interval must be >= 1")
        if route not in _ROUTES:
            raise ValueError(f"route must be one of {_ROUTES}, got {route!r}")
        self.case_builder = case_builder
        self.mode = mode
        self.ratio = ratio
        self.num_steps = num_steps
        self.stream_interval = stream_interval
        self.arrays = tuple(arrays)
        self.queue_limit = queue_limit
        self.queue_full_policy = queue_full_policy
        self.output_dir = Path(output_dir)
        self.samples_per_element = samples_per_element
        self.device_mode = device_mode
        self.image_size = image_size
        self.contour_isovalue = contour_isovalue
        self.injector = injector
        if retry is None and injector is not None:
            # fault runs need the writer to discover a dead endpoint in
            # test-scale time, not after the 120s default broker timeout
            retry = RetryPolicy(max_attempts=3, base_delay=0.01, attempt_timeout=0.1)
        self.retry = retry
        self.fallback = fallback
        self.session = session
        self.fleet = FleetConfig() if fleet is None else fleet
        self.codec = codec
        self.route = route
        self.router_policy = router_policy
        self.last_broker: SSTBroker | None = None
        self.last_coordinator: FleetCoordinator | None = None

    # -- layout -----------------------------------------------------------
    def split_counts(self, total_ranks: int) -> tuple[int, int]:
        """(num_sim, num_endpoint) for a total group size."""
        if total_ranks < 2:
            raise ValueError("in transit needs at least 2 ranks (sim + endpoint)")
        num_end = max(1, round(total_ranks / (self.ratio + 1)))
        num_sim = total_ranks - num_end
        return num_sim, num_end

    # -- body ----------------------------------------------------------------
    def run(self, comm: Communicator) -> InTransitResult:
        num_sim, num_end = self.split_counts(comm.size)
        is_sim = comm.rank < num_sim
        # telemetry tracks stay keyed by the *global* rank, so one
        # merged trace shows simulation and endpoint groups side by side
        scope = (
            self.session.activate(comm.rank) if self.session is not None
            else nullcontext()
        )
        try:
            with scope:
                broker = coordinator = None
                if self.mode != "none":
                    # built inside rank 0's scope: the shared broker's and
                    # coordinator's counters read into rank 0's registry
                    if comm.rank == 0:
                        broker = SSTBroker(
                            num_writers=num_sim,
                            queue_limit=self.queue_limit,
                            queue_full_policy=self.queue_full_policy,
                            injector=self.injector,
                        )
                        coordinator = self._build_coordinator(
                            broker, num_sim, num_end
                        )
                    broker, coordinator = comm.bcast((broker, coordinator), root=0)
                    self.last_broker = broker
                    self.last_coordinator = coordinator
                sub = comm.split(0 if is_sim else 1)
                if is_sim:
                    return self._run_simulation(sub, broker, num_sim)
                return self._run_endpoint_fleet(sub, coordinator)
        finally:
            # drain this rank's pending live-telemetry delta so timelines
            # are complete the instant the run body returns
            if self.session is not None:
                tel = self.session.rank(comm.rank)
                tel.live.flush()

    def _build_coordinator(
        self, broker: SSTBroker, num_sim: int, num_end: int
    ) -> FleetCoordinator:
        cfg = self.fleet
        return FleetCoordinator(
            broker,
            num_writers=num_sim,
            pool_size=num_end,
            lease_timeout=cfg.lease_timeout,
            live=getattr(self.session, "live", None),
        )

    # -- simulation side ---------------------------------------------------
    def _run_simulation(
        self, comm: Communicator, broker: SSTBroker | None, num_sim: int
    ) -> InTransitResult:
        case = self.case_builder(num_sim)
        device = Device(self.device_mode)
        solver = NekRSSolver(case, comm, device)
        steps = self.num_steps or case.num_steps

        bridge = None
        adios = None
        router = None
        routed = None
        mesh_name = "uniform" if self.mode == "catalyst" else "mesh"
        if broker is not None:
            engine = SSTWriterEngine(
                "nekrs-sensei", broker, writer_rank=comm.rank,
                retry=self.retry, codec=self.codec,
            )
            adios = ADIOSAnalysisAdaptor(
                comm, engine, mesh_name=mesh_name, arrays=self.arrays
            )
            analysis = adios
            if self.route != "intransit":
                # hybrid/in situ routing: each rank holds an identical
                # router fed with allreduced byte counts, so every rank
                # streams (or skips) the same steps — see insitu.router
                router = HybridRouter(self.router_policy, mode=self.route)
                insitu_analysis = (
                    self._endpoint_analysis(
                        comm, out=self.output_dir / f"{self.mode}_insitu"
                    )
                    if self.mode == "catalyst" else None
                )
                analysis = routed = RoutedAnalysis(
                    comm, adios, router, insitu=insitu_analysis
                )
            bridge = Bridge(
                solver,
                analysis=analysis,
                samples_per_element=self.samples_per_element,
                fallback=self.fallback,
                fallback_dir=self.output_dir / "fallback",
            )
        else:
            # No Transport: SENSEI is still in the loop (empty config).
            bridge = Bridge(solver, config_xml="<sensei></sensei>")

        step_seconds = []
        t0 = _time.perf_counter()
        for i in range(steps):
            ts = _time.perf_counter()
            report = solver.step()
            if report.step % self.stream_interval == 0:
                bridge.update(report.step, report.time)
            step_seconds.append(_time.perf_counter() - ts)
        bridge.finalize()
        wall = _time.perf_counter() - t0

        stream_bytes = adios.bytes_sent if adios is not None else 0
        staging = bridge.adaptor.staging_bytes_peak
        # staged SST payloads bound simulation-side transport memory
        transport = (
            self.queue_limit * (stream_bytes // max(adios.steps_sent, 1))
            if adios is not None and adios.steps_sent
            else 0
        )
        result = InTransitResult(
            role="simulation",
            rank=comm.rank,
            steps=steps,
            wall_seconds=wall,
            mean_step_seconds=sum(step_seconds) / len(step_seconds),
            stream_bytes=stream_bytes,
            memory_bytes=solver.memory_bytes() + staging + transport,
            staging_bytes=staging,
            extra={
                "insitu_seconds": bridge.insitu_seconds,
                "degraded_steps": bridge.degraded_steps,
                "fallback_bytes": bridge.fallback_bytes,
                "transport_down": bridge.transport_down,
            },
        )
        if adios is not None and engine.codec_context is not None:
            result.extra["codec"] = engine.codec_context.stats.as_dict()
        if router is not None:
            result.extra["router"] = router.stats()
            result.extra["routes"] = dict(router.route_counts)
        if routed is not None:
            result.extra["streamed_steps"] = routed.streamed_steps
            result.extra["insitu_steps"] = routed.insitu_steps
            result.extra["dropped_steps"] = routed.dropped_steps
        return result

    # -- endpoint side ----------------------------------------------------------
    def _endpoint_analysis(self, comm: Communicator, out: Path | None = None):
        if out is None:
            out = self.output_dir / self.mode
        if self.mode == "checkpoint":
            return VTKPosthocIO(
                comm,
                output_dir=out,
                mesh_name="mesh",
                arrays=self.arrays,
            )
        pipeline = RenderPipeline(
            specs=[
                RenderSpec(
                    kind="contour",
                    array=self.arrays[0],
                    isovalue=self.contour_isovalue,
                    color_array=self.arrays[-1],
                ),
                RenderSpec(kind="slice", array=self.arrays[0], axis="y"),
            ],
            width=self.image_size,
            height=self.image_size,
            name="intransit",
        )
        return CatalystAnalysisAdaptor(
            comm,
            pipeline,
            arrays=self.arrays,
            mesh_name="uniform",
            output_dir=out,
        )

    def _run_endpoint_fleet(
        self, comm: Communicator, coordinator: FleetCoordinator | None
    ) -> InTransitResult:
        """One endpoint rank: poll the fleet coordinator for work.

        Every endpoint renders through a private single-rank sink (no
        collectives across the endpoint group), so membership changes
        never strand a peer in a barrier.  Output files are keyed by
        (step, block) / (name, step) only, never by the rank that
        wrote them.
        """
        if coordinator is None:  # No Transport: endpoint idles
            return InTransitResult(role="endpoint", rank=comm.rank)
        t0 = _time.perf_counter()
        sink = AnalysisSink(self._endpoint_analysis)
        endpoint = FleetEndpoint(
            comm.rank,
            coordinator,
            sink,
            injector=self.injector,
        )
        report = endpoint.run()

        result = InTransitResult(role="endpoint", rank=comm.rank)
        result.steps = report.steps
        result.wall_seconds = _time.perf_counter() - t0
        result.mean_step_seconds = (
            result.wall_seconds / report.steps if report.steps else 0.0
        )
        result.stream_bytes = report.recv_bytes
        result.staging_bytes = report.staging_peak
        result.memory_bytes = report.staging_peak
        result.extra.update(
            crashed=report.crashed,
            idle_polls=report.idle_polls,
            empty_steps=sink.adaptor.empty_steps,
            corrupt_steps=coordinator.corrupt_steps,
        )
        analysis = sink.analysis
        if isinstance(analysis, VTKPosthocIO):
            result.files_bytes = analysis.bytes_written
        elif isinstance(analysis, CatalystAnalysisAdaptor):
            result.files_bytes = analysis.image_bytes
            result.images = analysis.images_written
            result.memory_bytes += analysis.peak_staging_bytes
        if comm.rank == 0 and not report.crashed:
            result.extra["fleet_stats"] = coordinator.stats()
        return result
