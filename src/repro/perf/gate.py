"""Perf regression gate: ``python -m repro bench --gate``.

A gate row is a **twin ratio**: seconds of a kernel's retained
``repro.perf.naive_mode`` reference path over seconds of its optimized
path, both executed in this process as interleaved pairs, reported as
the **median of the per-pair ratios**.  The verdict compares that
median with the **best ratio the row has in any committed**
``BENCH_<n>.json`` of schema ``repro-bench-gate/2``; more than
``TOLERANCE`` below it fails.  Seconds are recorded for reading only:
they belong to the host and the day, and never gate.

A run writes nothing.  ``--record BENCH_<n>.json`` adds one file to the
trajectory; a row whose workload changes gets a new name, never a
re-based value.  Schema-1 files (``BENCH_3…10.json``) are history:
their best-of/best-of ``speedup`` is printed beside the ratio and never
gates.  docs/performance.md has the estimator's noise table.

Everything heavyweight is imported inside the kernel builders so that
``import repro.perf`` stays cheap for the hot paths that use it.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.perf import config
from repro.util.timing import interleaved_pairs, seconds_of

SCHEMA = "repro-bench-gate/2"
HISTORY_SCHEMA = "repro-bench-gate/1"
#: a row fails this far below its best committed ratio (a 15% slowdown
#: lowers a ratio by 13%; unchanged balanced rows stay within 4%)
TOLERANCE = 0.10
#: each row's pairs are spread over this many passes over all rows: the
#: shared host drifts on a ~10 s scale, and one contiguous block per
#: row reads 6x wider than the same pairs spread over the whole run
ROUNDS = 5
#: wall seconds of pairs per row: with the row's measured pair cost it
#: fixes the pair count (at least one pair a round)
ROW_BUDGET_S = 5.0
MAX_PAIRS_PER_ROUND = 80
#: the optimized half of a lopsided twin is the short, noisy one: it is
#: repeated (median) for up to a quarter of the reference half's time
MAX_REPS = 8


# -- gated kernel workloads ---------------------------------------------
# each builder returns a zero-argument callable; the gate times it both
# optimized and under naive_mode (the callables dispatch internally)

def _kernel_gather_scatter_setup():
    from repro.sem.gather_scatter import find_interface_ids

    rng = np.random.default_rng(7)
    pool = np.arange(120_000, dtype=np.int64)
    sets = [
        np.unique(rng.choice(pool, size=60_000, replace=False))
        for _ in range(4)
    ]
    return lambda: find_interface_ids(sets)


def _kernel_stiffness_apply():
    from repro.parallel import SerialCommunicator
    from repro.sem import BoxMesh, SEMOperators

    ops = SEMOperators(BoxMesh((4, 4, 4), order=7), SerialCommunicator())
    rng = np.random.default_rng(0)
    f = rng.normal(size=ops.mesh.field_shape())
    return lambda: ops.stiffness_apply(f)


def _kernel_cg_solve():
    from repro.parallel import SerialCommunicator
    from repro.sem import BoxMesh, SEMOperators
    from repro.sem.krylov import cg_solve

    ops = SEMOperators(BoxMesh((3, 3, 3), order=6), SerialCommunicator())
    rng = np.random.default_rng(1)
    b = ops.assemble(rng.normal(size=ops.mesh.field_shape()))

    def apply_op(f):
        return ops.assemble(ops.helmholtz_apply(f, 1.0, 1.0))

    diag = ops.stiffness_diagonal(1.0, 1.0)
    pre = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 0.0)
    return lambda: cg_solve(apply_op, b, ops.dot, precond=pre, tol=1e-10,
                            max_iterations=60)


def _kernel_solver_step():
    from repro.nekrs import NekRSSolver
    from repro.nekrs.cases import lid_cavity_case
    from repro.parallel import SerialCommunicator

    case = lid_cavity_case(reynolds=100, elements=2, order=5, dt=5e-3)
    solver = NekRSSolver(case, SerialCommunicator())
    solver.run(2)  # warm caches / ramp BDF order
    return solver.step


def _kernel_rasterize_mesh():
    from repro.catalyst.camera import Camera
    from repro.catalyst.rasterizer import Rasterizer

    # thousands of small triangles — the shape marching tetrahedra
    # feeds the Catalyst render path, where the per-triangle Python
    # loop (not the per-pixel math) is the bottleneck
    rng = np.random.default_rng(3)
    nfaces = 4000
    centers = rng.uniform(-1.2, 1.2, size=(nfaces, 1, 3))
    vertices = (centers + rng.normal(scale=0.05, size=(nfaces, 3, 3))).reshape(-1, 3)
    faces = np.arange(3 * nfaces).reshape(nfaces, 3)
    colors = rng.integers(0, 256, size=(3 * nfaces, 3)).astype(np.uint8)
    camera = Camera.fit_bounds(np.array([[-1.5, 1.5]] * 3), width=256, height=256)

    def run():
        r = Rasterizer(256, 256)
        r.draw_mesh(camera, vertices, faces, colors)

    return run


def _spmd_seconds(body, nranks: int):
    """Run an SPMD workload once and return its machine-modeled seconds.

    ``perf.config.enabled`` is thread-local, so the gate's
    ``naive_mode()`` (entered in the main thread) is captured here and
    re-applied inside every rank body — otherwise spawned ranks would
    silently run the optimized paths during the reference measurement.

    The result is the slowest rank's CPU seconds plus Hockney wire time
    for its metered ingress bytes on the paper machine's fabric
    (per-rank attribution makes the gather hot spot visible, which
    wall-clock on one shared core never could).
    """
    from repro.machine.netmodel import NetworkModel
    from repro.machine.specs import POLARIS
    from repro.parallel import run_spmd
    from repro.parallel.comm import TrafficMeter

    flag = config.enabled()
    meter = TrafficMeter()

    def rank_body(comm):
        config.set_enabled(flag)
        t0 = time.thread_time()
        body(comm)
        return time.thread_time() - t0

    cpu = run_spmd(nranks, rank_body, meter=meter)
    net = NetworkModel(POLARIS)
    per_rank = meter.per_rank_bytes()
    hops = 3  # typical inter-group route for a multi-node job
    return float(max(
        c + net.p2p_time(per_rank.get(r, 0), hops) for r, c in enumerate(cpu)
    ))


def _kernel_compositing():
    from repro.catalyst.compositor import render_composited
    from repro.catalyst.pipeline import RenderPipeline, RenderSpec
    from repro.vtkdata.arrays import DataArray
    from repro.vtkdata.dataset import ImageData

    # pb146-shaped workload: 2 arrays x 48^3 f64 over 8 ranks.  The
    # reference is the pre-optimization render path — gather every
    # volume fragment to rank 0, assemble, render there; optimized is
    # sort-last: local render + direct-send depth compositing.
    nranks = 8
    nx = ny = nz = 48
    fx, fy, fz = nx // 2, ny // 2, nz // 2
    z, y, x = np.meshgrid(
        np.arange(nz, dtype=float),
        np.arange(ny, dtype=float),
        np.arange(nx, dtype=float),
        indexing="ij",
    )
    r = np.sqrt((x - nx / 2) ** 2 + (y - ny / 2) ** 2 + (z - nz / 2) ** 2)
    fields = {
        "q": np.cos(r * 0.35) + 0.05 * np.sin(x + y),
        "t": np.cos(r * 0.5) * 0.8 + 0.1 * np.sin(y + z),
    }
    frags = []
    for oz in range(0, nz, fz):
        for oy in range(0, ny, fy):
            for ox in range(0, nx, fx):
                payload = {
                    n: f[oz:oz + fz, oy:oy + fy, ox:ox + fx].copy()
                    for n, f in fields.items()
                }
                frags.append(
                    ((float(ox), float(oy), float(oz)), (fx, fy, fz), payload)
                )
    gdims = (nx, ny, nz)
    pipeline = RenderPipeline(
        specs=[
            RenderSpec(kind="contour", array="q", isovalue=0.3, color_array="t"),
            RenderSpec(kind="slice", array="t", axis="y"),
        ],
        width=128, height=128, name="gate",
    )

    def assemble():
        image = ImageData(dims=gdims, origin=(0, 0, 0), spacing=(1, 1, 1))
        for name, f in fields.items():
            image.add_array(DataArray(name, f.ravel()))
        return image

    def body(comm):
        mine = [f for i, f in enumerate(frags) if i % comm.size == comm.rank]
        if config.enabled():
            render_composited(
                comm, pipeline, mine, gdims, (0, 0, 0), (1, 1, 1),
                step=0, time=0.0,
            )
        else:
            gathered = comm.gather(mine)
            if gathered is not None:
                pipeline.render(assemble(), step=0, time=0.0)

    return lambda: _spmd_seconds(body, nranks)


#: the ``_factored`` row's reference half runs the factored operator's
#: allocating twin, not the D-form its unsuffixed name timed; the
#: ``_one_pass`` rows' runs the one-pass weighted dot, not the
#: three-pass one their ``_factored`` names timed
KERNELS = {
    "gather_scatter_setup": _kernel_gather_scatter_setup,
    "stiffness_apply_factored": _kernel_stiffness_apply,
    "cg_solve_one_pass": _kernel_cg_solve,
    "solver_step_one_pass": _kernel_solver_step,
    "rasterize_mesh": _kernel_rasterize_mesh,
    "compositing": _kernel_compositing,
}


class TrajectoryError(Exception):
    """No committed schema-2 ``BENCH_<n>.json`` to compare against."""


def load_trajectory(root: Path) -> list[tuple[str, dict]]:
    """(file name, document) of every BENCH_<n>.json in `root`, oldest first."""
    paths = [p for p in root.glob("BENCH_*.json") if p.stem[6:].isdigit()]
    paths.sort(key=lambda p: int(p.stem[6:]))
    return [(p.name, json.loads(p.read_text())) for p in paths]


def _best(trajectory, schema: str, key: str) -> dict[str, tuple[float, str]]:
    """Per row, the highest `key` over the files of `schema`, and its file."""
    best: dict[str, tuple[float, str]] = {}
    for fname, doc in trajectory:
        if doc.get("schema") != schema:
            continue
        for row, rec in doc["kernels"].items():
            if row not in best or rec[key] > best[row][0]:
                best[row] = (rec[key], fname)
    return best


def compare_to_trajectory(
    trajectory: list[tuple[str, dict]],
    ratios: dict[str, float],
    recording: bool = False,
) -> list[str]:
    """Failure messages for `ratios` against the committed trajectory.

    Pure function, so the verdict is testable without timing anything.
    Only schema-2 files gate.  A row below ``1 - TOLERANCE`` of its best
    committed ratio fails; so does a row that no file has (a rename
    nobody recorded), unless this run is `recording` the next file.
    """
    best = _best(trajectory, SCHEMA, "ratio")
    failures = []
    for name, ratio in ratios.items():
        if name in best:
            top, fname = best[name]
            if ratio < (1.0 - TOLERANCE) * top:
                failures.append(
                    f"{name}: ratio {ratio:.3f}x is "
                    f"{(1.0 - ratio / top) * 100:.1f}% below the best "
                    f"committed {top:.3f}x ({fname})"
                )
        elif not recording:
            failures.append(
                f"{name}: no committed ratio in any {SCHEMA} BENCH_<n>.json "
                "(new or renamed row: --record it)"
            )
    return failures


def _measure(kernels: dict) -> dict[str, dict]:
    """Median interleaved twin ratio of every kernel."""
    rows = {}
    for name, builder in kernels.items():
        fn = builder()

        def reference(fn=fn):
            with config.naive_mode():
                return fn()

        # warm-up builds plans and fills the arena pools; the wall times
        # of a second optimized call and the reference call size the
        # row: repeats of the optimized half, pairs per round
        fn()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        reference()
        opt, ref = t1 - t0, time.perf_counter() - t1
        reps = max(1, min(MAX_REPS, int(ref / opt / 4)))

        def optimized(fn=fn, reps=reps):
            return statistics.median(seconds_of(fn) for _ in range(reps))

        per_round = round(ROW_BUDGET_S / ROUNDS / (reps * opt + ref))
        rows[name] = (optimized, reference,
                      max(1, min(MAX_PAIRS_PER_ROUND, per_round)), [])
    for _ in range(ROUNDS):
        for optimized, reference, per_round, samples in rows.values():
            samples += interleaved_pairs(optimized, reference, per_round)
    out = {}
    for name, (_, _, _, samples) in rows.items():
        ratios = [ref / opt for opt, ref in samples]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        out[name] = {
            "ratio": median,
            "ratio_quartiles": [q1, q3],
            "pairs": len(samples),
            "optimized_s": statistics.median(opt for opt, _ in samples),
            "reference_s": statistics.median(ref for _, ref in samples),
        }
    return out


@dataclass
class GateReport:
    kernels: dict
    trajectory: list[tuple[str, dict]]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        best = _best(self.trajectory, SCHEMA, "ratio")
        history = _best(self.trajectory, HISTORY_SCHEMA, "speedup")
        failed = {msg.split(":", 1)[0] for msg in self.failures}
        nan = (float("nan"), "")
        lines = [
            f"{'row':<22} {'pairs':>5} {'optimized':>11} {'reference':>11} "
            f"{'ratio':>9} {'iqr':>7} {'best':>9} {'history*':>9}  status",
        ]
        for name, k in self.kernels.items():
            lines.append(
                f"{name:<22} {k['pairs']:>5} {k['optimized_s'] * 1e3:>9.3f}ms "
                f"{k['reference_s'] * 1e3:>9.3f}ms {k['ratio']:>8.3f}x "
                f"{k['ratio_quartiles'][1] - k['ratio_quartiles'][0]:>7.3f} "
                f"{best.get(name, nan)[0]:>8.3f}x "
                f"{history.get(name, nan)[0]:>8.2f}x  "
                f"{'FAIL' if name in failed else 'ok'}"
            )
        lines.append("* best schema-1 speedup (best-of / best-of): never gated")
        lines.extend(f"FAIL {msg}" for msg in self.failures)
        files = [f for f, d in self.trajectory if d.get("schema") == SCHEMA]
        lines.append(
            f"gate {'PASSED' if self.ok else 'FAILED'} (floor: {TOLERANCE:.0%} "
            f"below the best ratio in {', '.join(files) or 'no file yet'})"
        )
        return "\n".join(lines)


def run_gate(
    root: Path, record: Path | None = None, kernels: dict | None = None
) -> GateReport:
    """Measure the gated rows and compare against the trajectory in `root`.

    Writes nothing unless `record` names the next ``BENCH_<n>.json``.
    Raises :class:`TrajectoryError` when `root` holds no schema-2 file
    and this run does not record the first.
    """
    trajectory = load_trajectory(root)
    if record is None and not _best(trajectory, SCHEMA, "ratio"):
        raise TrajectoryError(
            f"no BENCH_<n>.json of schema {SCHEMA} in {root.resolve()} "
            "(run from the repository root, or --record the first one)"
        )
    current = _measure(KERNELS if kernels is None else kernels)
    failures = compare_to_trajectory(
        trajectory, {name: k["ratio"] for name, k in current.items()},
        recording=record is not None,
    )
    if record is not None:
        record.write_text(json.dumps(
            {"schema": SCHEMA, "kernels": current}, indent=2, sort_keys=True
        ) + "\n")
    return GateReport(current, trajectory, failures)
