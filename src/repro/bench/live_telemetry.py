"""Live telemetry bench: what the streaming plane costs while running.

Drives the same small in-transit run twice — once bare, once
with a :class:`~repro.observe.live.plane.LivePlane` attached — and
reports the wall-clock delta the live plane adds: correlation tags on
every payload, per-rank ring collectors on every stage boundary, the
streaming aggregator, and the SLO watchdog pass per snapshot flush.
The acceptance budget is **< 5% overhead**, with every stage event
recorded: nothing trades detail for time at run time.

``python -m repro.bench.live_telemetry`` prints the table; the budget's
one verdict is the ``perf``-marked
``tests/test_observe_live.py::test_live_plane_overhead_under_5pct``.
"""

from __future__ import annotations

import statistics
import tempfile
import time

from repro.util.tables import Table
from repro.util.timing import interleaved_pairs


def measure_live_run(with_plane: bool) -> dict:
    """One small in-transit run (3 ranks, 2 steps), optionally instrumented.

    ``{"seconds": wall, "plane": ... or None}`` — the plane is returned
    live so callers can inspect timelines, ring drops and SLO state.
    """
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.observe import TelemetrySession
    from repro.observe.live import LivePlane
    from repro.parallel import run_spmd

    steps = 2

    def case_builder(nsim):
        case = weak_scaled_rbc_case(nsim, elements_per_rank=2, order=3,
                                    dt=1e-3)
        return case.with_overrides(num_steps=steps)

    session = TelemetrySession("live-bench")
    plane = LivePlane(session) if with_plane else None
    with tempfile.TemporaryDirectory(prefix="repro-live-bench-") as tmp:
        runner = InTransitRunner(
            case_builder,
            mode="catalyst",
            ratio=2,
            num_steps=steps,
            stream_interval=1,
            arrays=("temperature",),
            output_dir=tmp,
            image_size=48,
            session=session,
        )
        t0 = time.perf_counter()
        run_spmd(3, runner.run)
        seconds = time.perf_counter() - t0
    if plane is not None:
        plane.flush_all()
    return {"seconds": seconds, "plane": plane}


def measure_overhead(repeats: int = 3) -> dict:
    """Median over `repeats` interleaved bare / instrumented pairs.

    One throwaway warmup run absorbs first-use costs (plan builds,
    arena pools, import time) before either side is measured.  The
    headline ``overhead_ratio`` is the **median** of the per-pair
    ``(on - off) / off`` from
    :func:`repro.util.timing.interleaved_pairs` — single measurements
    of sub-second runs on a shared core are coin flips, and occasional
    scheduler spikes can inflate a whole best-of block, but they cannot
    move the median of a dozen adjacent pairs.  ``off_s``/``on_s``
    remain the per-side floors.
    """
    best_on = None  # only the fastest instrumented run's plane is kept alive

    def bare() -> float:
        return measure_live_run(with_plane=False)["seconds"]

    def with_plane() -> float:
        nonlocal best_on
        out = measure_live_run(with_plane=True)
        best_on = min(best_on or out, out, key=lambda o: o["seconds"])
        return out["seconds"]

    bare()
    pairs = interleaved_pairs(bare, with_plane, repeats)
    plane = best_on["plane"]
    pair_ratios = [(on - off) / off for off, on in pairs]
    return {
        "off_s": min(off for off, _ in pairs),
        "on_s": best_on["seconds"],
        "pair_ratios": pair_ratios,
        "overhead_ratio": statistics.median(pair_ratios),
        "dropped": plane.aggregator.dropped_events,
        "snapshots": plane.aggregator.snapshots,
        "events": plane.aggregator.events_seen,
        "timelines_complete": sum(
            1 for tl in plane.timelines() if tl.complete
        ),
    }


#: bare / instrumented pairs the table's median is taken over
TABLE_REPEATS = 3


def overhead_table() -> Table:
    """The live-telemetry table: instrumented vs bare, budget verdict."""
    out = measure_overhead(repeats=TABLE_REPEATS)
    table = Table(
        ["metric", "value"],
        title="Live telemetry — streaming plane overhead "
              f"(fleet run, median of {TABLE_REPEATS} pairs, budget 5%)",
    )
    table.add_row(["bare run [s]", f"{out['off_s']:.3f}"])
    table.add_row(["instrumented run [s]", f"{out['on_s']:.3f}"])
    table.add_row(["overhead", f"{out['overhead_ratio'] * 100:+.2f}%"])
    table.add_row(["events lost to ring overflow", out["dropped"]])
    table.add_row(["snapshots ingested", out["snapshots"]])
    table.add_row(["stage events", out["events"]])
    table.add_row(["complete timelines", out["timelines_complete"]])
    return table


if __name__ == "__main__":
    print(overhead_table().render())
