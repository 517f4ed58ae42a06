"""Perf regression gate: ``python -m repro bench --gate``.

Runs the gated microbenchmarks twice — optimized and, via
``repro.perf.naive_mode``, on the retained reference paths — then
compares the optimized timings against the committed baseline in
``BENCH_10.json``.  A kernel that regresses more than
``THRESHOLD - 1`` (20%) against its recorded baseline fails the gate.

The file keeps three numbers per kernel so the history stays honest:

- ``reference_s`` — the pre-optimization path, measured now;
- ``latest_s`` — the optimized path, measured now;
- ``baseline_s`` — the optimized timing recorded when the baseline was
  last refreshed (``--update-baseline``).

Everything heavyweight is imported inside the kernel builders so that
``import repro.perf`` stays cheap for the hot paths that use it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.perf.arena import get_arena
from repro.perf.config import naive_mode
from repro.perf.plans import get_plan_cache

SCHEMA = "repro-bench-gate/1"
THRESHOLD = 1.2
BASELINE_FILE = "BENCH_10.json"


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


def _spmd_seconds(body, nranks: int, modeled: bool):
    """Run an SPMD workload once and return its measured seconds.

    ``perf.config.enabled`` is thread-local, so the gate's
    ``naive_mode()`` (entered in the main thread) is captured here and
    re-applied inside every rank body — otherwise spawned ranks would
    silently run the optimized paths during the reference measurement.

    With `modeled` False the result is aggregate rank CPU time — on
    this container every rank shares one core, so summed thread time is
    what wall-clock pays, minus scheduler noise.  With `modeled` True
    the result is machine-modeled: the slowest rank's CPU seconds plus
    Hockney wire time for its metered ingress bytes on the paper
    machine's fabric (per-rank attribution makes the gather hot spot
    visible, which wall-clock on one shared core never could).
    """
    from repro.machine.netmodel import NetworkModel
    from repro.machine.specs import POLARIS
    from repro.parallel import run_spmd
    from repro.parallel.comm import TrafficMeter
    from repro.perf import config

    flag = config.enabled()
    meter = TrafficMeter()

    def rank_body(comm):
        config.set_enabled(flag)
        t0 = time.thread_time()
        body(comm)
        return time.thread_time() - t0

    cpu = run_spmd(nranks, rank_body, meter=meter)
    if not modeled:
        return float(sum(cpu))
    net = NetworkModel(POLARIS)
    per_rank = meter.per_rank_bytes()
    hops = 3  # typical inter-group route for a multi-node job
    return float(max(
        c + net.p2p_time(per_rank.get(r, 0), hops) for r, c in enumerate(cpu)
    ))


def _kernel_collectives():
    from repro.parallel import ReduceOp

    nranks, rounds = 8, 50
    arr = np.arange(4096, dtype=np.float64)

    def body(comm):
        for _ in range(rounds):
            comm.bcast(arr if comm.rank == 0 else None)
            comm.gather(arr)
            comm.scatter([arr] * comm.size if comm.rank == 0 else None)
            comm.reduce(arr, ReduceOp.SUM)

    # binomial trees / pairwise exchange vs the two-barrier slot
    # allgather: same results bit for bit, fewer synchronization hops
    return lambda: _spmd_seconds(body, nranks, modeled=False)


def _kernel_compositing():
    from repro.catalyst.compositor import render_composited
    from repro.catalyst.pipeline import RenderPipeline, RenderSpec
    from repro.perf import config
    from repro.vtkdata.arrays import DataArray
    from repro.vtkdata.dataset import ImageData

    # pb146-shaped workload: 2 arrays x 48^3 f64 over 8 ranks.  The
    # reference is the pre-optimization render path — gather every
    # volume fragment to rank 0, assemble, render there; optimized is
    # sort-last: local render + binary-swap depth compositing.
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
                step=0, time=0.0, method="binary_swap",
            )
        else:
            gathered = comm.gather(mine)
            if gathered is not None:
                pipeline.render(assemble(), step=0, time=0.0)

    return lambda: _spmd_seconds(body, nranks, modeled=True)


def _kernel_live_telemetry():
    from repro.bench.live_telemetry import measure_live_run
    from repro.perf import config as perf_config

    # the instrumented in transit run: correlation tags, ring
    # collectors, streaming aggregation, SLO watchdog.  The reference
    # is the same run, same topology, with the plane off; the strict
    # <5% on-vs-off budget is asserted in tests/test_observe_live.py.
    def run() -> float:
        return measure_live_run(with_plane=perf_config.enabled())["seconds"]

    return run


def _kernel_compression():
    from repro.bench.compression import gate_step_seconds, measure_compression
    from repro.perf import config as perf_config

    # modeled 1120-rank in-transit step with the wire codec in the
    # path: optimized replays the *measured* delta-rle velocity+
    # pressure ratio (floor 4x at relative 1e-3, enforced inside);
    # the reference is the same step uncompressed.  The measurement
    # is cached, so the warm-up pays for the solves once.
    measure_compression()
    return lambda: gate_step_seconds(compressed=perf_config.enabled())


def _kernel_device_render():
    from repro.bench.device_render import gate_step_seconds, measure_device_render
    from repro.perf import config as perf_config

    # modeled 1120-rank in situ overhead: optimized is the
    # device-resident pipeline (tile-only D2H, no host staging, GPU
    # render kernels, floor 1.5x reduction enforced inside); the
    # reference is the host-resident gather.  The underlying pb146
    # profile measurement is cached, so the warm-up pays once.
    measure_device_render()
    return lambda: gate_step_seconds(device=perf_config.enabled())


KERNELS = {
    "gather_scatter_setup": _kernel_gather_scatter_setup,
    "stiffness_apply": _kernel_stiffness_apply,
    "cg_solve": _kernel_cg_solve,
    "solver_step": _kernel_solver_step,
    "rasterize_mesh": _kernel_rasterize_mesh,
    "collectives": _kernel_collectives,
    "compositing": _kernel_compositing,
    "live_telemetry": _kernel_live_telemetry,
    "compression": _kernel_compression,
    "device_render": _kernel_device_render,
}


def _best_of(fn, repeats: int) -> float:
    """Best measurement over `repeats` runs.

    A kernel that returns a plain float reports its *own* measured
    seconds (the SPMD kernels return per-rank CPU / machine-modeled
    time); anything else is timed wall-clock here.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        best = min(best, out if type(out) is float else elapsed)
    return best


def compare_to_baseline(
    baseline: dict, current: dict, threshold: float = THRESHOLD
) -> list[str]:
    """Regression messages for kernels slower than threshold x baseline.

    Pure function over the two ``kernels`` mappings so the fail path is
    testable without timing anything.
    """
    failures = []
    for name, cur in current.items():
        base = baseline.get(name)
        if not base or "baseline_s" not in base:
            continue
        allowed = threshold * base["baseline_s"]
        if cur["latest_s"] > allowed:
            failures.append(
                f"{name}: {cur['latest_s'] * 1e3:.3f} ms exceeds "
                f"{threshold:.2f}x baseline "
                f"({base['baseline_s'] * 1e3:.3f} ms -> allowed "
                f"{allowed * 1e3:.3f} ms)"
            )
    return failures


@dataclass
class GateReport:
    ok: bool
    path: Path
    kernels: dict
    failures: list[str] = field(default_factory=list)
    allocation_stats: dict = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"{'kernel':<22} {'reference':>11} {'optimized':>11} "
            f"{'speedup':>8} {'baseline':>11}  status",
        ]
        for name, k in self.kernels.items():
            lines.append(
                f"{name:<22} {k['reference_s'] * 1e3:>9.3f}ms "
                f"{k['latest_s'] * 1e3:>9.3f}ms {k['speedup']:>7.2f}x "
                f"{k['baseline_s'] * 1e3:>9.3f}ms  {k['status']}"
            )
        if self.failures:
            lines.append("")
            lines.extend(f"FAIL {msg}" for msg in self.failures)
        lines.append("")
        lines.append(
            f"gate {'PASSED' if self.ok else 'FAILED'} "
            f"(threshold {THRESHOLD:.2f}x, baseline {self.path})"
        )
        return "\n".join(lines)


def run_gate(
    path: str | Path = BASELINE_FILE,
    update_baseline: bool = False,
    repeats: int = 5,
    kernels: dict | None = None,
) -> GateReport:
    """Measure the gated kernels and compare against the baseline file.

    Writes the refreshed ``BENCH_10.json`` (new kernels adopt their
    current timing as baseline; existing baselines are preserved unless
    `update_baseline`).
    """
    path = Path(path)
    kernels = KERNELS if kernels is None else kernels
    previous = {}
    if path.exists():
        previous = json.loads(path.read_text()).get("kernels", {})

    current: dict[str, dict] = {}
    for name, builder in kernels.items():
        fn = builder()
        fn()  # warm-up: build plans, fill the arena pools
        latest = _best_of(fn, repeats)
        with naive_mode():
            fn()
            reference = _best_of(fn, repeats)
        current[name] = {
            "latest_s": latest,
            "reference_s": reference,
            "speedup": reference / latest if latest > 0 else float("inf"),
        }

    failures = compare_to_baseline(previous, current)
    failed = {f.split(":", 1)[0] for f in failures}
    for name, cur in current.items():
        base = previous.get(name, {}).get("baseline_s")
        if update_baseline or base is None:
            base = cur["latest_s"]
        cur["baseline_s"] = base
        cur["status"] = "FAIL" if name in failed else "ok"

    arena = get_arena()
    plans = get_plan_cache()
    allocation_stats = {
        "arena": arena.stats(),
        "plan_cache": {"hits": plans.hits, "misses": plans.misses,
                       "plans": len(plans)},
    }
    report = GateReport(
        ok=not failures,
        path=path,
        kernels=current,
        failures=failures,
        allocation_stats=allocation_stats,
    )
    path.write_text(json.dumps({
        "schema": SCHEMA,
        "threshold": THRESHOLD,
        "kernels": current,
        "allocation_stats": allocation_stats,
    }, indent=2, sort_keys=True) + "\n")
    return report
