"""Instrumented scaled-down runs producing RunProfiles.

Three in situ configurations mirror Section 4.1's measurement points:

- ``original``   — solver only, no SENSEI,
- ``checkpoint`` — solver + built-in .fld dumps every `interval` steps,
- ``catalyst``   — solver + SENSEI bridge + Catalyst rendering every
  `interval` steps (device->host copy + resample + gather + render +
  PNG write, all real).
- ``catalyst_device`` — the same bridge with ``residency="device"``:
  resample/render/composite run as registered device kernels and only
  the composited tile crosses the modeled PCIe link.

The in transit measurement reuses :class:`repro.insitu.InTransitRunner`
for the three Section 4.2 measurement points (none / checkpoint /
catalyst endpoints).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.insitu.bridge import Bridge
from repro.insitu.instrumentation import RunProfile
from repro.insitu.intransit import InTransitRunner
from repro.nekrs.checkpoint import write_checkpoint
from repro.nekrs.config import CaseDefinition
from repro.nekrs.solver import NekRSSolver
from repro.observe.session import TelemetrySession
from repro.occa import Device
from repro.parallel import run_spmd

_MODES = ("original", "checkpoint", "catalyst", "catalyst_device")


def _catalyst_xml(interval: int, isovalue: float, array: str, color: str,
                  size: int, residency: str = "host") -> str:
    return f"""
    <sensei>
      <analysis type="catalyst" mesh="uniform" array="{array}"
                color_array="{color}" isovalue="{isovalue}"
                slice_axis="y" width="{size}" height="{size}"
                frequency="{interval}" residency="{residency}" />
    </sensei>
    """


def _rank_body(
    comm,
    case: CaseDefinition,
    mode: str,
    steps: int,
    interval: int,
    outdir: str,
    isovalue: float,
    array: str,
    color_array: str,
    image_size: int,
    session: TelemetrySession,
):
    with session.activate(comm.rank):
        return _instrumented_rank_body(
            comm, case, mode, steps, interval, outdir,
            isovalue, array, color_array, image_size,
        )


def _instrumented_rank_body(
    comm,
    case: CaseDefinition,
    mode: str,
    steps: int,
    interval: int,
    outdir: str,
    isovalue: float,
    array: str,
    color_array: str,
    image_size: int,
):
    device = Device("cuda-sim")
    solver = NekRSSolver(case, comm, device)
    fields = {"pressure": solver.p, "velocity_x": solver.u,
              "velocity_y": solver.v, "velocity_z": solver.w}
    if solver.T is not None:
        fields["temperature"] = solver.T

    bridge = None
    if mode in ("catalyst", "catalyst_device"):
        residency = "device" if mode == "catalyst_device" else "host"
        bridge = Bridge(
            solver,
            config_xml=_catalyst_xml(
                interval, isovalue, array, color_array, image_size,
                residency=residency,
            ),
            output_dir=outdir,
        )

    checkpoint_bytes = 0
    dumps = 0
    pressure_iters = 0
    for _ in range(steps):
        report = solver.step()
        pressure_iters += report.pressure_iterations
        if report.step % interval == 0:
            if mode == "checkpoint":
                _, nbytes = write_checkpoint(
                    Path(outdir) / "fld",
                    case.name,
                    report.step,
                    report.time,
                    comm.rank,
                    comm.size,
                    fields,
                )
                checkpoint_bytes += nbytes
                dumps += 1
            elif mode in ("catalyst", "catalyst_device"):
                bridge.update(report.step, report.time)
                dumps += 1
    if bridge is not None:
        bridge.finalize()

    result = {
        "gridpoints": solver.local_gridpoints(),
        "solver_memory": solver.memory_bytes(),
        "num_fields": len(fields),
        "d2h_bytes": device.transfers.d2h_bytes,
        "checkpoint_bytes": checkpoint_bytes,
        "dumps": dumps,
        "pressure_iters": pressure_iters,
        "staging": 0,
        "image_bytes": 0,
        "images": 0,
    }
    if bridge is not None:
        result["staging"] = bridge.adaptor.staging_bytes_peak
        catalyst = bridge.analysis.adaptors[0][1]
        result["image_bytes"] = catalyst.image_bytes
        result["images"] = catalyst.images_written
    return result


def measure_insitu_profile(
    case: CaseDefinition,
    mode: str,
    ranks: int = 4,
    steps: int = 6,
    interval: int = 2,
    output_dir: str | Path | None = None,
    isovalue: float = 0.5,
    array: str = "velocity_magnitude",
    color_array: str = "temperature",
    image_size: int = 256,
    session: TelemetrySession | None = None,
) -> RunProfile:
    """Run one instrumented configuration; aggregate to a RunProfile.

    The ranks run under `session` (else under one this measurement
    owns), and every duration in the profile is read from its spans;
    pass one to keep the run's spans, metrics and memory high-water
    marks.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if steps % interval:
        raise ValueError("steps must be a multiple of interval")
    outdir = str(output_dir) if output_dir else tempfile.mkdtemp(prefix="repro-bench-")
    if session is None:
        session = TelemetrySession(f"{case.name}-{mode}")
    results = run_spmd(
        ranks,
        _rank_body,
        args=(case, mode, steps, interval, outdir, isovalue, array, color_array,
              image_size, session),
    )
    dumps = max(results[0]["dumps"], 1)

    def seconds(name: str, rank: int | None) -> float:
        return session.span_total(name, rank)[1]

    # a step blocks the solver for its solve and its dump or hand-off
    step_seconds = sum(
        seconds(name, None)
        for name in ("solver.step", "checkpoint.write", "bridge.execute")
    )
    profile = RunProfile(
        case=case.name,
        mode=mode,
        ranks=ranks,
        steps=steps,
        insitu_interval=interval,
        gridpoints_per_rank=float(np.mean([r["gridpoints"] for r in results])),
        num_fields=results[0]["num_fields"],
        solver_seconds_per_step=step_seconds / (ranks * steps),
        d2h_bytes_per_invocation_per_rank=int(
            np.mean([r["d2h_bytes"] for r in results]) / dumps
        ),
        checkpoint_bytes_per_dump_per_rank=int(
            np.mean([r["checkpoint_bytes"] for r in results]) / dumps
        ),
        image_bytes_per_invocation=int(results[0]["image_bytes"] / dumps),
        # the root renders and writes every frame
        render_seconds_per_invocation=(
            seconds("catalyst.render", 0) + seconds("catalyst.write", 0)
        ) / dumps,
        solver_memory_bytes_per_rank=int(np.mean([r["solver_memory"] for r in results])),
        staging_memory_bytes_per_rank=int(np.mean([r["staging"] for r in results])),
        extra={
            "images_per_invocation": results[0]["images"] / dumps,
            "pressure_iters_per_step": results[0]["pressure_iters"] / steps,
        },
    )
    return profile


#: the fields an in transit measurement streams
STREAMED_ARRAYS = ("temperature", "velocity_magnitude")


def measure_intransit_profiles(
    case_builder,
    mode: str,
    total_ranks: int = 5,
    steps: int = 6,
    stream_interval: int = 1,
    ratio: int = 4,
    output_dir: str | Path | None = None,
    **runner_kwargs,
) -> dict:
    """Measure one in transit configuration.

    Returns {"simulation": RunProfile, "endpoint": {...stats...}} —
    simulation-node quantities are what Figures 5 and 6 plot.
    """
    outdir = str(output_dir) if output_dir else tempfile.mkdtemp(prefix="repro-bench-it-")
    runner = InTransitRunner(
        case_builder,
        mode={"original": "none", "none": "none"}.get(mode, mode),
        ratio=ratio,
        num_steps=steps,
        stream_interval=stream_interval,
        arrays=STREAMED_ARRAYS,
        output_dir=outdir,
        **runner_kwargs,
    )
    results = run_spmd(total_ranks, runner.run)
    sims = [r for r in results if r.role == "simulation"]
    ends = [r for r in results if r.role == "endpoint"]
    num_sim = len(sims)
    case = case_builder(num_sim)
    gp = case.total_gridpoints() / num_sim
    profile = RunProfile(
        case=case.name,
        mode=mode,
        ranks=num_sim,
        steps=steps,
        insitu_interval=stream_interval,
        gridpoints_per_rank=gp,
        num_fields=len(STREAMED_ARRAYS),
        solver_seconds_per_step=float(np.mean([r.mean_step_seconds for r in sims])),
        stream_bytes_per_step_per_rank=int(
            np.mean([r.stream_bytes for r in sims]) / max(steps // stream_interval, 1)
        ),
        solver_memory_bytes_per_rank=int(
            np.mean([r.memory_bytes - r.staging_bytes for r in sims])
        ),
        staging_memory_bytes_per_rank=int(np.mean([r.staging_bytes for r in sims])),
    )
    endpoint_stats = {
        "ranks": len(ends),
        # each step is rendered by one endpoint, whichever polled first
        "steps": sum(e.steps for e in ends),
        "files_bytes": sum(e.files_bytes for e in ends),
        "images": sum(e.images for e in ends),
        "memory_bytes": max((e.memory_bytes for e in ends), default=0),
        "mean_step_seconds": float(np.mean([e.mean_step_seconds for e in ends])) if ends else 0.0,
    }
    return {"simulation": profile, "endpoint": endpoint_stats}
