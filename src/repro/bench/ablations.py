"""Ablation benchmarks for the design choices DESIGN.md calls out.

- :func:`insitu_frequency` — how the in situ action interval trades
  overhead against temporal resolution (paper uses every 100 steps),
- :func:`sst_queue` — SST QueueLimit / QueueFullPolicy: backpressure
  vs dropped steps when the endpoint is slower than the simulation,
- :func:`endpoint_ratio` — sim:endpoint node ratio (paper fixes 4:1).

Each returns a Table; run as ``python -m repro.bench.ablations``.
"""

from __future__ import annotations

from repro.bench.replay import predict_insitu_run
from repro.bench.workloads import PB146_GRIDPOINTS, PB146_STEPS, pb146_profiles
from repro.bench.measure import measure_intransit_profiles
from repro.machine import POLARIS
from repro.nekrs.cases import weak_scaled_rbc_case
from repro.util.sizes import format_bytes
from repro.util.tables import Table


#: the in situ action intervals swept at fixed 3000 steps
FREQUENCY_INTERVALS = (10, 50, 100, 500)
#: ranks of the frequency sweep (the paper's smallest pb146 scale)
FREQUENCY_RANKS = 280


def insitu_frequency(
    measure_kwargs: dict | None = None,
) -> Table:
    """Sweep the in situ action interval at fixed 3000 steps."""
    profiles = pb146_profiles(**(measure_kwargs or {}))
    table = Table(
        ["interval", "catalyst [s]", "overhead vs original [%]",
         "images", "image storage"],
        title=f"Ablation — in situ frequency (pb146, {FREQUENCY_RANKS} ranks)",
    )
    base = predict_insitu_run(
        profiles["original"], POLARIS, FREQUENCY_RANKS, PB146_GRIDPOINTS,
        steps=PB146_STEPS, interval=100,
    ).total_seconds
    images_per_invocation = profiles["catalyst"].extra.get("images_per_invocation", 2)
    for interval in FREQUENCY_INTERVALS:
        pred = predict_insitu_run(
            profiles["catalyst"], POLARIS, FREQUENCY_RANKS, PB146_GRIDPOINTS,
            steps=PB146_STEPS, interval=interval,
        )
        dumps = PB146_STEPS // interval
        table.add_row(
            [
                interval,
                pred.total_seconds,
                100.0 * (pred.total_seconds - base) / base,
                int(dumps * images_per_invocation),
                format_bytes(pred.storage_bytes),
            ]
        )
    return table


#: SST QueueFullPolicy values
QUEUE_POLICIES = ("Block", "Discard")


def sst_queue(
    queue_limits: tuple[int, ...] = (1, 2, 4),
    total_ranks: int = 5,
    steps: int = 6,
) -> Table:
    """Measure (for real, at small scale) how the SST queue behaves
    when the Catalyst endpoint is slower than the simulation."""

    def case_builder(nsim):
        c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3, dt=1e-3)
        return c.with_overrides(num_steps=steps)

    table = Table(
        ["queue limit", "policy", "sim ms/step", "steps received", "steps dropped"],
        title="Ablation — SST QueueLimit / QueueFullPolicy (measured)",
    )
    for limit in queue_limits:
        for policy in QUEUE_POLICIES:
            out = measure_intransit_profiles(
                case_builder,
                "catalyst",
                total_ranks=total_ranks,
                steps=steps,
                stream_interval=1,
                queue_limit=limit,
                queue_full_policy=policy,
                image_size=96,
            )
            sim = out["simulation"]
            end = out["endpoint"]
            dropped = steps - end["steps"]
            table.add_row(
                [limit, policy, sim.solver_seconds_per_step * 1e3,
                 end["steps"], max(dropped, 0)]
            )
    return table


def endpoint_ratio(
    ratios: tuple[int, ...] = (2, 4, 8),
    steps: int = 4,
) -> Table:
    """Measure sim-vs-endpoint balance across sim:endpoint ratios."""

    def case_builder(nsim):
        c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3, dt=1e-3)
        return c.with_overrides(num_steps=steps)

    table = Table(
        ["ratio", "total ranks", "sim ranks", "endpoint ranks",
         "sim ms/step", "endpoint ms/step"],
        title="Ablation — sim:endpoint ratio (measured)",
    )
    for ratio in ratios:
        total = ratio + 1
        out = measure_intransit_profiles(
            case_builder,
            "catalyst",
            total_ranks=total,
            steps=steps,
            stream_interval=2,
            ratio=ratio,
            image_size=96,
        )
        sim = out["simulation"]
        end = out["endpoint"]
        table.add_row(
            [f"{ratio}:1", total, sim.ranks, end["ranks"],
             sim.solver_seconds_per_step * 1e3, end["mean_step_seconds"] * 1e3]
        )
    return table


#: steps between two compressed dumps (and renders)
DUMP_INTERVAL = 2


def data_reduction(
    error_bounds: tuple[float, ...] = (1e-2, 1e-4, 1e-6),
    steps: int = 4,
) -> Table:
    """The fidelity-vs-volume curve the paper's dilemma implies.

    Measures, on a real pb146-analog run, the bytes written per dump
    by: raw .fld checkpointing, ``compressed_io`` dumps (``delta-rle``
    frames in deflated BP files) at several absolute bounds, and
    Catalyst images — the full spectrum from "keep everything" to
    "keep two views".  A dump's mesh goes out once, exact, in its first
    file: the compressed rows count the later dumps (arrays only), and
    the mesh row is what a first dump costs on top of them, averaged
    over the bounds.  Needs ``steps >= 2 * interval``.
    """
    import tempfile
    from pathlib import Path

    from repro.insitu import Bridge
    from repro.nekrs import NekRSSolver
    from repro.nekrs.checkpoint import write_checkpoint
    from repro.parallel import SerialCommunicator
    from repro.bench.workloads import measurement_pebble_case

    if steps < 2 * DUMP_INTERVAL:
        raise ValueError("data_reduction needs at least two dumps")
    case = measurement_pebble_case(num_pebbles=3, elements_per_unit=3,
                                   order=3, num_steps=steps)
    solver = NekRSSolver(case, SerialCommunicator())
    outdir = Path(tempfile.mkdtemp(prefix="repro-reduction-"))
    dumps_xml = "".join(
        f'<analysis type="compressed_io" output="{outdir / f"dump{b:g}"}" '
        'arrays="pressure,velocity_x,velocity_y,velocity_z" '
        f'error_bound="{b!r}" frequency="{DUMP_INTERVAL}"/>'
        for b in error_bounds
    )
    config_xml = (
        f'<sensei>{dumps_xml}<analysis type="catalyst" mesh="uniform" '
        'array="velocity_magnitude" isovalue="0.5" width="256" '
        f'height="256" frequency="{DUMP_INTERVAL}"/></sensei>'
    )
    bridge = Bridge(solver, config_xml=config_xml, output_dir=outdir / "png")

    raw_bytes = 0
    dumps = 0
    for _ in range(steps):
        report = solver.step()
        if report.step % DUMP_INTERVAL == 0:
            dumps += 1
            fields = {"pressure": solver.p, "velocity_x": solver.u,
                      "velocity_y": solver.v, "velocity_z": solver.w}
            _, n = write_checkpoint(outdir / "fld", case.name, report.step,
                                    report.time, 0, 1, fields)
            raw_bytes += n
            bridge.update(report.step, report.time)
    bridge.finalize()
    image_bytes = bridge.analysis.adaptors[-1][1].image_bytes

    table = Table(
        ["representation", "bytes/dump", "vs raw", "guaranteed error"],
        title="Ablation — data reduction spectrum (measured, per dump)",
    )
    raw = raw_bytes // dumps
    table.add_row(["raw .fld checkpoint", raw, 1.0, "0 (exact)"])
    extra = []      # what each bound's first dump costs over its later ones
    for bound in sorted(error_bounds, reverse=True):
        first, *later = (p.stat().st_size for p in
                         sorted((outdir / f"dump{bound:g}").glob("*.bp")))
        arrays = sum(later) // len(later)
        extra.append(first - arrays)
        table.add_row(["delta-rle + deflate (.bp)", arrays, arrays / raw,
                       f"abs {bound:g}"])
    mesh = sum(extra) // len(extra)
    table.add_row(["mesh geometry, written once", mesh, mesh / raw,
                   "0 (exact)"])
    table.add_row(
        ["catalyst images", image_bytes // dumps, image_bytes / raw_bytes,
         "n/a (pixels)"]
    )
    return table


#: the element grid and order whose partitions are compared
PARTITION_SHAPE = (8, 8, 4)
PARTITION_ORDER = 3


def partition_strategy(
    rank_counts: tuple[int, ...] = (2, 4, 8),
) -> Table:
    """Slab vs Morton element partitioning: gather-scatter interface size.

    Measured on real meshes: the number of interface nodes each rank
    shares with peers (the per-application communication volume of the
    direct-stiffness exchange).  Space-filling-curve bricks beat thin
    slabs as rank counts grow — why production Nek does not use naive
    slabs.
    """
    from repro.parallel import run_spmd
    from repro.sem import BoxMesh
    from repro.sem.gather_scatter import GatherScatter

    def measure(partition, ranks):
        def body(comm):
            mesh = BoxMesh(PARTITION_SHAPE, order=PARTITION_ORDER, rank=comm.rank,
                           size=comm.size, partition=partition)
            gs = GatherScatter(mesh.global_ids, comm)
            return len(gs.interface_ids)

        return run_spmd(ranks, body)[0]

    table = Table(
        ["ranks", "slab interface nodes", "morton interface nodes",
         "morton/slab"],
        title=f"Ablation — partition strategy, {PARTITION_SHAPE} elements at order "
        f"{PARTITION_ORDER} (measured gather-scatter interface)",
    )
    for ranks in rank_counts:
        slab = measure("slab", ranks)
        morton = measure("morton", ranks)
        table.add_row([ranks, slab, morton, morton / slab if slab else 0.0])
    return table


#: the Polaris rank counts the strong-scaling sweep predicts
SCALING_RANK_COUNTS = (70, 140, 280, 560, 1120, 2240)


def strong_scaling_limit(
    measure_kwargs: dict | None = None,
) -> Table:
    """Where does pb146 stop strong-scaling on Polaris?

    The replay model separates per-step compute (shrinks with ranks)
    from collective latency (grows ~log P): their crossover is the
    strong-scaling limit for this problem size.  The paper runs up to
    1120 ranks; this ablation shows how much further would have paid.
    """
    from repro.bench.workloads import pb146_profiles, PB146_GRIDPOINTS, PB146_STEPS

    profiles = pb146_profiles(**(measure_kwargs or {}))
    table = Table(
        ["ranks", "time [s]", "compute share [%]", "collective share [%]",
         "parallel efficiency [%]"],
        title="Ablation — pb146 strong-scaling limit on Polaris (Original config)",
    )
    base = None
    for ranks in SCALING_RANK_COUNTS:
        pred = predict_insitu_run(
            profiles["original"], POLARIS, ranks, PB146_GRIDPOINTS,
            steps=PB146_STEPS,
        )
        total = pred.total_seconds
        if base is None:
            base = (ranks, total)
        efficiency = 100.0 * (base[1] / total) * (base[0] / ranks)
        table.add_row(
            [
                ranks,
                total,
                100.0 * pred.seconds.get("solve", 0.0) / total,
                100.0 * pred.seconds.get("collectives", 0.0) / total,
                efficiency,
            ]
        )
    return table


if __name__ == "__main__":
    print(insitu_frequency().render())
    print()
    print(sst_queue().render())
    print()
    print(endpoint_ratio().render())
    print()
    print(data_reduction().render())
    print()
    print(strong_scaling_limit().render())
