"""Live telemetry bench: what the streaming plane costs while running.

Drives the same small in-transit run twice — once bare, once
with a :class:`~repro.observe.live.plane.LivePlane` attached — and
reports the wall-clock delta the live plane adds: correlation tags on
every payload, per-rank ring collectors on every stage boundary, the
streaming aggregator, and the SLO watchdog pass per snapshot flush.
The acceptance budget is **< 5% overhead**; the adaptive sampler
exists to hold that line by degrading span detail before the budget
blows.

``python -m repro.bench.live_telemetry`` prints the table;
``python -m repro bench --gate`` times the instrumented run as the
``live_telemetry`` gate row (baseline ``BENCH_9.json``), so an
accidental hot-path regression in the collectors fails CI the same
way a solver regression would.
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.util.tables import Table

#: workload knobs shared by the gate kernel and the overhead table
DEFAULT_RANKS = 3
DEFAULT_STEPS = 2


def measure_live_run(
    with_plane: bool = True,
    ranks: int = DEFAULT_RANKS,
    steps: int = DEFAULT_STEPS,
    image_size: int = 48,
    overhead_budget: float = 0.05,
):
    """One in-transit run, optionally instrumented; returns raw results.

    ``{"seconds": wall, "session": ..., "plane": ... or None,
    "runner": ...}`` — the plane is returned live so callers can
    inspect timelines, sampler level, and SLO state after the run.
    """
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.observe import TelemetrySession
    from repro.observe.live import LivePlane
    from repro.parallel import run_spmd

    def case_builder(nsim):
        case = weak_scaled_rbc_case(nsim, elements_per_rank=2, order=3,
                                    dt=1e-3)
        return case.with_overrides(num_steps=steps)

    session = TelemetrySession("live-bench")
    plane = (
        LivePlane(session, overhead_budget=overhead_budget)
        if with_plane else None
    )
    with tempfile.TemporaryDirectory(prefix="repro-live-bench-") as tmp:
        runner = InTransitRunner(
            case_builder,
            mode="catalyst",
            ratio=2,
            num_steps=steps,
            stream_interval=1,
            arrays=("temperature",),
            output_dir=tmp,
            image_size=image_size,
            session=session,
        )
        t0 = time.perf_counter()
        run_spmd(ranks, runner.run)
        seconds = time.perf_counter() - t0
    if plane is not None:
        plane.flush_all()
    return {
        "seconds": seconds,
        "session": session,
        "plane": plane,
        "runner": runner,
    }


def measure_overhead(
    repeats: int = 3,
    ranks: int = DEFAULT_RANKS,
    steps: int = DEFAULT_STEPS,
    **kwargs,
) -> dict:
    """Best-of-`repeats` instrumented vs bare wall time.

    One throwaway warmup run absorbs first-use costs (plan builds,
    arena pools, import time) before either side is measured.  The
    bare and instrumented runs are interleaved pairwise (not two
    back-to-back blocks) so a load or frequency shift mid-measurement
    hits both sides alike instead of masquerading as overhead, and the
    headline ``overhead_ratio`` is the **median** of the per-pair
    ratios — single measurements of sub-second runs on a shared core
    are coin flips, and occasional scheduler spikes can inflate a
    whole best-of block, but they cannot move the median of a dozen
    adjacent pairs.  ``off_s``/``on_s`` remain the per-side floors.
    """
    measure_live_run(with_plane=False, ranks=ranks, steps=steps, **kwargs)
    off = None
    best_on = None
    pair_ratios = []
    for _ in range(repeats):
        bare = measure_live_run(
            with_plane=False, ranks=ranks, steps=steps, **kwargs
        )["seconds"]
        if off is None or bare < off:
            off = bare
        out = measure_live_run(
            with_plane=True, ranks=ranks, steps=steps, **kwargs
        )
        if best_on is None or out["seconds"] < best_on["seconds"]:
            best_on = out
        if bare > 0:
            pair_ratios.append((out["seconds"] - bare) / bare)
    plane = best_on["plane"]
    import statistics

    return {
        "off_s": off,
        "on_s": best_on["seconds"],
        "pair_ratios": pair_ratios,
        "overhead_ratio": (
            statistics.median(pair_ratios) if pair_ratios else 0.0
        ),
        "sampler": plane.sampler.as_dict(),
        "snapshots": plane.aggregator.snapshots,
        "events": plane.aggregator.events_seen,
        "timelines_complete": sum(
            1 for tl in plane.timelines() if tl.complete
        ),
        "plane": plane,
    }


def overhead_table(repeats: int = 3, **kwargs) -> Table:
    """The live-telemetry table: instrumented vs bare, budget verdict."""
    out = measure_overhead(repeats=repeats, **kwargs)
    table = Table(
        ["metric", "value"],
        title="Live telemetry — streaming plane overhead "
              f"(fleet run, best of {repeats}, budget 5%)",
    )
    table.add_row(["bare run [s]", f"{out['off_s']:.3f}"])
    table.add_row(["instrumented run [s]", f"{out['on_s']:.3f}"])
    table.add_row(["overhead", f"{out['overhead_ratio'] * 100:+.2f}%"])
    table.add_row(["sampler level", out["sampler"]["level_name"]])
    table.add_row(["sampler downgrades", out["sampler"]["downgrades"]])
    table.add_row(["snapshots ingested", out["snapshots"]])
    table.add_row(["stage events", out["events"]])
    table.add_row(["complete timelines", out["timelines_complete"]])
    return table


if __name__ == "__main__":
    print(overhead_table().render())
    sys.exit(0)
