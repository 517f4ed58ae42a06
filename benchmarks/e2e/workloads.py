"""The four workloads: inputs from a seed, driver-owned loops, output checks.

Each ``run_*`` function sets the program up (including its warm-up),
stamps ``ready``, runs the timed region in blocks, checks the outputs
and returns an :class:`Outcome`.  The program sees only the generated
inputs, never the seed's meaning or the workload's name.

Timing is taken by the driver around its own calls; counters are read
from public result/stat fields.  ``tracer`` (a ``trace.Tracer`` or
``None``) only adds the driver's own spans: the ``timed`` window and the
per-frame take sweep.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

import api
from trace import DRIVER, TIMED

#: name -> (blocks, typical ops/s on the 2-vCPU sandbox pinned to one CPU,
#: ops per window, warm-up ops).  ``--seconds`` times the typical rate
#: fixes the op count, so a fixed seed and ``--seconds`` repeat the same
#: work exactly.  A block (the calibration probe runs between blocks) is
#: a whole number of windows; a window is the smallest stretch of ops
#: that always does the same work: one step; two steps and one render;
#: one whole in transit invocation (0: the block is the window); 50
#: frames with their ten slow-client drains and one churn event.
#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "pb_solve": (8, 5.6, 1, 8),
    "pb_insitu": (6, 1.8, 2, 4),
    "rbc_intransit": (10, 5.0, 0, 8),
    "serve_fanout": (8, 320.0, 50, 200),
}

FULL_SECONDS = 30.0     # the size the issue's tables are written for


@dataclass(frozen=True)
class Sizes:
    warmup: int
    blocks: int
    per_block: int

    @property
    def timed(self) -> int:
        return self.blocks * self.per_block


def sizes_for(name: str, seconds: float, quick: bool = False) -> Sizes:
    blocks, rate, window, warmup = WORKLOADS[name]
    window = window or 1
    if quick:
        blocks = 2
        warmup = max(window, warmup // 4 // window * window)
    per_block = window * max(1, round(seconds * rate / blocks / window))
    return Sizes(warmup, blocks, per_block)


@dataclass
class Outcome:
    ready: float                      # time.monotonic() when set-up ended
    window_ops: list[int] = field(default_factory=list)
    window_s: list[float] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    blocked_ms: list[float] = field(default_factory=list)
    calib_ms: list[float] = field(default_factory=list)
    #: repeats of the same work, each cut into the same segments (seconds),
    #: and what ``quiet_repeat`` makes of them; 0.0 = not used, the rate is
    #: the best window's and the step time the fastest step's
    repeat_s: list[list[float]] = field(default_factory=list)
    quiet_ops_per_s: float = 0.0
    quiet_step_ms: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    viz: int = 0                      # visualization hand-offs in the timed region
    artifact_digest: str = ""
    counts: dict[str, float] = field(default_factory=dict)   # per-layer metric -> value
    notes: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < 8:
            self.failures.append(message)


def quiet_repeat(repeat_s: list[list[float]]) -> np.ndarray:
    """Segment times of the repeat a quiet machine would have run: the
    repeats do the same work in every segment and noise only adds time,
    so each segment takes its fastest repeat.  Far steadier than the
    fastest whole repeat, which needs every segment quiet at once."""
    return np.min(repeat_s, axis=0)


_CALIB = np.random.default_rng(0).random((200, 200))


def calibration_probe() -> float:
    """Fixed Python + NumPy work, in ms.  A level-shift detector for the
    machine, printed next to the metrics; never used to normalise them."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    b = _CALIB
    for _ in range(5):
        b = b @ _CALIB
        b /= b.max()
    np.sort(_CALIB, axis=None)
    return (time.perf_counter() - t0) * 1e3


def _span(tracer, name: str, layer: str = DRIVER):
    return tracer.span(name, layer) if tracer is not None else nullcontext()


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _png_problem(data: bytes, size: int) -> str | None:
    try:
        image = api.decode_png(data)
    except ValueError as exc:
        return f"undecodable ({exc})"
    if image.shape != (size, size, 3):
        return f"shape {image.shape}"
    if image.min() == image.max():
        return "constant image"
    return None


# -- pb_solve / pb_insitu ----------------------------------------------------

PB_XML = (
    '<sensei><analysis type="catalyst" mesh="uniform" '
    'array="velocity_magnitude" isovalue="0.5" color_array="temperature" '
    'slice_axis="y" width="256" height="256" frequency="2" /></sensei>'
)
PB_FREQUENCY = 2
PB_RANKS = 2


def _pb_inflow(seed: int) -> float:
    return 1.0 + 0.01 * random.Random(seed).uniform(-1.0, 1.0)


def _pb_rank(comm, inflow, sizes, ke_mark, png_dir, setup_only, tracer):
    case = api.pebble_bed_case(
        num_pebbles=5, elements_per_unit=4, order=5, dt=1e-3, viscosity=5e-2,
        inflow_velocity=inflow,
    )
    solver = api.NekRSSolver(case, comm, api.Device("cuda-sim"))
    bridge = (
        api.Bridge(solver, config_xml=PB_XML, output_dir=png_dir)
        if png_dir is not None else None
    )
    for _ in range(sizes.warmup):
        report = solver.step()
        if bridge is not None:
            bridge.update(report.step, report.time)
    comm.barrier()
    out = {"ready": time.monotonic()}
    if setup_only:
        return out
    if comm.rank == 0:
        gc.collect()
    comm.barrier()

    d2h0, h2d0 = solver.device.transfers.d2h_bytes, solver.device.transfers.h2d_bytes
    comm_bytes0 = comm.meter.total_bytes()
    step_s, update_s, iter_s, calib = [], [], [], []
    p_iters = v_iters = 0
    ke_at_mark = None
    clock = time.perf_counter
    wall0, cpu0 = clock(), time.process_time()
    with _span(tracer, TIMED):
        for _block in range(sizes.blocks):
            for _ in range(sizes.per_block):
                t0 = clock()
                report = solver.step()
                t1 = clock()
                step_s.append(t1 - t0)
                p_iters += report.pressure_iterations
                v_iters += report.velocity_iterations
                if bridge is not None:
                    bridge.update(report.step, report.time)
                    if report.step % PB_FREQUENCY == 0:
                        update_s.append(clock() - t1)
                iter_s.append(clock() - t0)
                if report.step == ke_mark:
                    ke_at_mark = solver.kinetic_energy()
            if comm.rank == 0:
                with _span(tracer, "calib"):
                    calib.append(calibration_probe())
    out.update(
        wall_s=clock() - wall0, cpu_s=time.process_time() - cpu0,
        step_s=step_s, update_s=update_s, iter_s=iter_s, calib=calib,
        p_iters=p_iters, v_iters=v_iters, last_step=report.step,
        ke_at_mark=ke_at_mark, ke_final=solver.kinetic_energy(),
        gridpoints=solver.local_gridpoints(),
        d2h_bytes=solver.device.transfers.d2h_bytes - d2h0,
        h2d_bytes=solver.device.transfers.h2d_bytes - h2d0,
        comm_bytes=comm.meter.total_bytes() - comm_bytes0,
        arena=api.get_arena().stats(),
    )
    if bridge is not None:
        bridge.finalize()
        catalyst = bridge.analysis.adaptors[0][1]
        out.update(
            staging_peak=bridge.adaptor.staging_bytes_peak,
            images=catalyst.images_written, image_bytes=catalyst.image_bytes,
        )
    return out


def pb_ke_mark(seconds: float, quick: bool) -> int:
    """The solver step at which both pb workloads record kinetic energy:
    ``pb_insitu``'s last step (``pb_solve`` runs past it)."""
    s = sizes_for("pb_insitu", seconds, quick)
    return s.warmup + s.timed


def _run_pb(name, seed, seconds, quick, out_dir, setup_only, tracer) -> Outcome:
    insitu = name == "pb_insitu"
    sizes = sizes_for(name, seconds, quick)
    ke_mark = pb_ke_mark(seconds, quick)
    png_dir = _fresh_dir(out_dir / name) if insitu else None
    ranks = api.run_spmd(
        PB_RANKS, _pb_rank,
        args=(_pb_inflow(seed), sizes, ke_mark, png_dir, setup_only, tracer),
    )
    r0 = ranks[0]
    o = Outcome(ready=max(r["ready"] for r in ranks))
    if setup_only:
        return o
    # a window holds the same kind of work: one step, or (with the bridge)
    # the steps up to and including the one that renders
    per_window = PB_FREQUENCY if insitu else 1
    iter_s = r0["iter_s"]
    o.window_s = [sum(iter_s[i:i + per_window])
                  for i in range(0, len(iter_s), per_window)]
    o.window_ops = [per_window] * len(o.window_s)
    o.step_ms = [s * 1e3 for s in r0["step_s"]]
    if insitu:
        # a window is [step, update, ..., step, update that renders]; the
        # surface grows with the flow, so the quiet render is an early one
        split = np.column_stack([r0["step_s"], np.subtract(iter_s, r0["step_s"])])
        o.repeat_s = split.reshape(-1, 2 * per_window).tolist()
        o.quiet_ops_per_s = per_window / float(quiet_repeat(o.repeat_s).sum())
    o.blocked_ms = [s * 1e3 for s in r0["update_s"]]
    o.calib_ms = r0["calib"]
    o.wall_s, o.cpu_s = r0["wall_s"], r0["cpu_s"]
    o.attempted = sizes.timed
    o.viz = len(r0["update_s"])
    steps = sizes.timed
    arena_hits = sum(r["arena"]["hits"] for r in ranks)
    arena_misses = sum(r["arena"]["misses"] for r in ranks)
    o.counts = {
        "nekrs.pressure_iters_per_step": r0["p_iters"] / steps,
        "nekrs.velocity_iters_per_step": r0["v_iters"] / steps,
        # TrafficMeter is shared by the group: one total, not per rank
        "parallel.bytes_per_step": r0["comm_bytes"] / steps,
        "occa.d2h_bytes_per_viz": (
            sum(r["d2h_bytes"] for r in ranks) / o.viz if o.viz else 0.0
        ),
        "occa.h2d_bytes": sum(r["h2d_bytes"] for r in ranks),
        "perf.arena_hit_ratio": arena_hits / max(arena_hits + arena_misses, 1),
        "perf.arena_pooled_mb": sum(r["arena"]["pooled_bytes"] for r in ranks) / 2**20,
    }
    if len({r["ke_final"] for r in ranks}) != 1 or not np.isfinite(r0["ke_final"]):
        o.fail(f"kinetic energy differs across ranks or is not finite: "
               f"{[r['ke_final'] for r in ranks]}", ops=steps)
    if sum(r["gridpoints"] for r in ranks) != 20736:
        o.fail(f"unexpected grid size {[r['gridpoints'] for r in ranks]}", ops=steps)
    ke_hex = float(r0["ke_at_mark"]).hex() if r0["ke_at_mark"] is not None else ""
    digest_parts = [r0["ke_final"].hex(), ke_hex, r0["p_iters"], r0["v_iters"]]

    # visualization must not perturb the solve: both workloads record the
    # kinetic energy at the same solver step, compared through a note file
    # because each workload runs in its own process
    note = out_dir / f"{name}.ke.json"
    other = out_dir / ("pb_solve.ke.json" if insitu else "pb_insitu.ke.json")
    note.write_text(json.dumps({"seed": seed, "step": ke_mark, "ke": ke_hex}))
    o.notes["ke_vs_other_pb_workload"] = "unverified (no matching run in out/)"
    if other.exists():
        prior = json.loads(other.read_text())
        if prior.get("seed") == seed and prior.get("step") == ke_mark:
            if prior.get("ke") == ke_hex:
                o.notes["ke_vs_other_pb_workload"] = "bit-identical"
            else:
                o.notes["ke_vs_other_pb_workload"] = "DIFFERS"
                o.fail(f"kinetic energy at step {ke_mark} is {ke_hex}, "
                       f"{other.name} has {prior.get('ke')}", ops=steps)

    if insitu:
        o.counts.update({
            "insitu.staging_peak_mb": max(r["staging_peak"] for r in ranks) / 2**20,
            "util.png_kb_per_viz": r0["image_bytes"] / 1024 / max(
                o.viz + sizes.warmup // PB_FREQUENCY, 1),
        })
        first = sizes.warmup + 1
        for step in range(first, first + steps):
            if step % PB_FREQUENCY:
                continue
            pngs = sorted(png_dir.glob(f"*_{step:06d}.png"))
            if len(pngs) != 2:
                o.fail(f"step {step}: {len(pngs)} PNGs, expected 2", ops=PB_FREQUENCY)
                continue
            for path in pngs:
                data = path.read_bytes()
                digest_parts += [path.name, data]
                problem = _png_problem(data, 256)
                if problem:
                    o.fail(f"{path.name}: {problem}", ops=PB_FREQUENCY)
                    break
    o.artifact_digest = _sha256(digest_parts)
    return o


# -- rbc_intransit -----------------------------------------------------------

RBC_ARRAYS = ("temperature", "velocity_magnitude")


def _rbc_invocation(seed, steps, out_dir, tracer):
    clock = time.perf_counter
    stamps = {}             # simulation time -> when the step at it began
    returned = []           # when each rank's run() returned

    def case_builder(num_sim_ranks):
        case = api.weak_scaled_rbc_case(
            num_sim_ranks, elements_per_rank=32, order=5, dt=1e-3, seed=seed,
        )
        buoyancy = case.forcing

        # the runner owns the step loop; the case's user function, which
        # the solver evaluates once per time level, is where the driver
        # reads the clock (what a NekRS .udf would do)
        def forcing(x, y, z, t, T):
            stamps.setdefault(t, clock())
            return buoyancy(x, y, z, t, T)

        return replace(case, forcing=forcing)

    runner = api.InTransitRunner(
        case_builder, mode="catalyst", ratio=1, num_steps=steps,
        stream_interval=1, arrays=RBC_ARRAYS, image_size=128,
        codec=api.CodecSpec.from_cli("delta-rle", "1e-3", temporal=True),
        output_dir=_fresh_dir(out_dir),
    )

    def body(comm):
        with _span(tracer, TIMED):
            result = runner.run(comm)
        returned.append(clock())
        return result, api.get_arena().stats()

    t0, c0 = clock(), time.process_time()
    ranks = api.run_spmd(2, body)
    t1, c1 = clock(), time.process_time()
    # start-up, one loop period per step but the last, last step until the
    # simulation rank returns, drain until the endpoint returns, join; one
    # segment (the whole invocation) if the stamps are not one a step
    marks = [t0, *sorted(stamps.values()), *sorted(returned), t1]
    if len(stamps) != steps:
        marks = [t0, t1]
    return runner, ranks, np.diff(marks), c1 - c0


def _run_rbc(seed, seconds, quick, out_dir, setup_only, tracer) -> Outcome:
    sizes = sizes_for("rbc_intransit", seconds, quick)
    base = out_dir / "rbc_intransit"
    # the warm-up invocation is outside every ``timed`` window
    _rbc_invocation(seed, sizes.warmup, base / "warmup", None)
    o = Outcome(ready=time.monotonic())
    if setup_only:
        return o
    gc.collect()

    steps = sizes.per_block
    blocked, digests = [], []
    wire = raw = discarded = 0
    codec_ratio, raw_fallbacks = [], 0
    staging_peak = 0
    arena_hits = arena_misses = arena_pooled = 0
    png_bytes = 0
    for k in range(sizes.blocks):
        runner, ranks, segments, cpu = _rbc_invocation(
            seed, steps, base / f"k{k}", tracer)
        wall = float(segments.sum())
        # the checks below read PNGs back; keep them out of the totals
        o.wall_s += wall
        o.cpu_s += cpu
        o.calib_ms.append(calibration_probe())
        (sim, sim_arena), (end, end_arena) = ranks
        if sim.role != "simulation" or end.role != "endpoint":
            o.fail(f"invocation {k}: roles {sim.role}/{end.role}", ops=steps)
            continue
        o.window_ops.append(steps)
        o.window_s.append(wall)
        o.repeat_s.append(segments.tolist())
        o.step_ms.append(sim.mean_step_seconds * 1e3)
        blocked.append(sim.extra["insitu_seconds"] / steps * 1e3)
        stats = runner.last_broker.stats
        wire += stats.bytes_put
        raw += sim.stream_bytes
        discarded += stats.steps_discarded
        codec = sim.extra["codec"]
        codec_ratio.append(codec["ratio"])
        raw_fallbacks += sum(
            1 for name, f in codec["fields"].items()
            if "/array/" in name and f["codec"] == "raw"
        )
        staging_peak = max(staging_peak, sim.staging_bytes, end.staging_bytes)
        for arena in (sim_arena, end_arena):
            arena_hits += arena["hits"]
            arena_misses += arena["misses"]
            arena_pooled = max(arena_pooled, arena["pooled_bytes"])
        png_bytes += end.files_bytes

        problems = []
        if end.steps != sim.steps or sim.steps != steps:
            problems.append(f"endpoint steps {end.steps} != sim steps {sim.steps}")
        if end.images != 2 * steps:
            problems.append(f"{end.images} images, expected {2 * steps}")
        for key, value in (
            ("degraded_steps", sim.extra["degraded_steps"]),
            ("corrupt_steps", end.extra["corrupt_steps"]),
            ("empty_steps", end.extra["empty_steps"]),
            ("steps_discarded", stats.steps_discarded),
        ):
            if value:
                problems.append(f"{key} = {value}")
        pngs = sorted((base / f"k{k}" / "catalyst").glob("*.png"))
        if len(pngs) != 2 * steps:
            problems.append(f"{len(pngs)} PNG files, expected {2 * steps}")
        for path in pngs[:2] + pngs[-2:]:
            problem = _png_problem(path.read_bytes(), 128)
            if problem:
                problems.append(f"{path.name}: {problem}")
        digests.append(_sha256(
            part for path in pngs for part in (path.name, path.read_bytes())
        ))
        for problem in problems:
            o.fail(f"invocation {k}: {problem}", ops=steps)
    if len(set(digests)) > 1:
        o.fail("PNG sets differ between identical invocations",
               ops=steps * sizes.blocks)
    if len({len(segments) for segments in o.repeat_s}) == 1:
        # the whole invocation, and the mean of its loop periods
        quiet = quiet_repeat(o.repeat_s)
        o.quiet_ops_per_s = steps / float(quiet.sum())
        o.quiet_step_ms = float(quiet[1:steps].mean() if len(quiet) > steps
                                else quiet.sum() / steps) * 1e3
    o.blocked_ms = blocked
    o.attempted = steps * sizes.blocks
    o.viz = o.attempted
    o.artifact_digest = digests[0] if digests else ""
    o.counts = {
        "adios.wire_kb_per_step": wire / 1024 / o.attempted,
        "adios.raw_kb_per_step": raw / 1024 / o.attempted,
        "adios.steps_discarded": discarded,
        "codec.ratio": median(codec_ratio) if codec_ratio else 0.0,
        "codec.raw_fallbacks": raw_fallbacks,
        "insitu.staging_peak_mb": staging_peak / 2**20,
        "perf.arena_hit_ratio": arena_hits / max(arena_hits + arena_misses, 1),
        "perf.arena_pooled_mb": arena_pooled / 2**20,
        "util.png_kb_per_viz": png_bytes / 1024 / o.attempted,
    }
    return o


# -- serve_fanout ------------------------------------------------------------

SERVE_CLIENTS = 2000
SERVE_SLOW_EVERY = 5        # every 5th client is slow, draining every 5th frame
SERVE_CYCLE = 64            # distinct frames; > history, so interning hits and evicts
SERVE_HISTORY = 32
SERVE_CHURN_EVERY = 50      # frames between churn events
SERVE_CHURN_CLIENTS = 20
SERVE_STREAM = "main"


def _serve_frames(seed: int) -> list[bytes]:
    """A seeded cycle of distinct 256x256 PNGs (a moving disc on a noisy
    gradient, so they neither dedup nor compress to nothing)."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:256, 0:256]
    frames = []
    for _ in range(SERVE_CYCLE):
        image = np.empty((256, 256, 3), np.uint8)
        image[..., 0] = xx
        image[..., 1] = yy
        image[..., 2] = rng.integers(0, 32, (256, 256))
        cx, cy = rng.integers(32, 224, 2)
        r = rng.integers(8, 40)
        image[(xx - cx) ** 2 + (yy - cy) ** 2 < r * r] = rng.integers(64, 255, 3)
        frames.append(api.encode_png(image))
    return frames


def _run_serve(seed, seconds, quick, out_dir, setup_only, tracer) -> Outcome:
    sizes = sizes_for("serve_fanout", seconds, quick)
    frames = _serve_frames(seed)
    mesh = api.ServeMesh(relays=1, history=SERVE_HISTORY, default_depth=2)
    try:
        return _serve_loop(mesh, frames, seed, sizes, setup_only, tracer)
    finally:
        mesh.close()


def _serve_loop(mesh, frames, seed, sizes, setup_only, tracer) -> Outcome:
    clock = time.perf_counter
    sessions = [mesh.connect(label=f"client-{i}") for i in range(SERVE_CLIENTS)]
    slow_ids = list(range(0, SERVE_CLIENTS, SERVE_SLOW_EVERY))
    slow = {i: sessions[i] for i in slow_ids}
    fast = [s for i, s in enumerate(sessions) if i % SERVE_SLOW_EVERY]
    churn_order = random.Random(seed).sample(slow_ids, len(slow_ids))

    o = Outcome(ready=0.0)
    publish_ms, connect_us, replay_us = [], [], []
    retired = []                 # sessions that disconnected
    backfilled = 0
    state = {"frame": 0, "churn": 0, "delivered": 0, "window_t0": 0.0}
    frame_t0 = []                # when each frame of the current window began

    def one_frame(timed: bool) -> None:
        f = state["frame"]
        state["frame"] = f + 1
        data = frames[f % SERVE_CYCLE]
        t0 = clock()
        published = mesh.publish(SERVE_STREAM, f, f * 0.1, data)
        t1 = clock()
        payload = published.data
        bad = 0
        with _span(tracer, "take_sweep", "serve"):
            for s in fast:
                got = s.take(timeout=5)
                if got is None or got.step != f or got.data is not payload:
                    bad += 1
        t2 = clock()
        delivered = len(fast) - bad
        if payload != data:
            bad = len(fast)
        if f % SERVE_SLOW_EVERY == SERVE_SLOW_EVERY - 1:
            with _span(tracer, "drain_sweep", "serve"):
                for s in slow.values():
                    delivered += len(s.drain())
        window_end = f % SERVE_CHURN_EVERY == SERVE_CHURN_EVERY - 1
        if window_end:
            with _span(tracer, "churn", "serve"):
                delivered += churn(timed)
        if timed:
            frame_t0.append(t0)
            publish_ms.append((t1 - t0) * 1e3)
            o.step_ms.append((t2 - t0) * 1e3)
            o.attempted += len(fast)
            if bad:
                o.fail(f"frame {f}: {bad} fast clients missed it or got "
                       f"other bytes", ops=bad)
        state["delivered"] += delivered
        if window_end:
            now = clock()
            if timed:
                o.window_s.append(now - state["window_t0"])
                o.window_ops.append(state["delivered"])
                frame_t0[0] = state["window_t0"]
                o.repeat_s.append(np.diff(frame_t0 + [now]).tolist())
                frame_t0.clear()
            state["window_t0"], state["delivered"] = now, 0

    def churn(timed: bool) -> int:
        nonlocal backfilled
        got = 0
        start = state["churn"] * SERVE_CHURN_CLIENTS
        state["churn"] += 1
        for j in range(SERVE_CHURN_CLIENTS):
            cid = churn_order[(start + j) % len(churn_order)]
            old = slow[cid]
            got += len(old.drain())     # leave with an empty queue
            mesh.disconnect(old)
            retired.append(old)
            t0 = clock()
            new = mesh.connect(label=f"client-{cid}", backfill=True)
            connect_us.append((clock() - t0) * 1e6)
            slow[cid] = new
            n = len(new.drain())
            got += n
            if timed:
                backfilled += n
                if n < 1:
                    o.fail(f"client-{cid} rejoined without a backfilled frame")
        t0 = clock()
        replay = mesh.relay_replay(SERVE_STREAM)
        replay_us.append((clock() - t0) * 1e6)
        steps = [fr.step for fr in replay]
        if timed and (not steps or steps != sorted(set(steps))):
            o.fail(f"relay_replay returned steps {steps[:4]}..{steps[-4:]}")
        return got

    for _ in range(sizes.warmup):
        one_frame(timed=False)
    o.ready = time.monotonic()
    if setup_only:
        return o
    gc.collect()
    del connect_us[:], replay_us[:]

    wall0, cpu0 = clock(), time.process_time()
    with _span(tracer, TIMED):
        for _block in range(sizes.blocks):
            state["window_t0"] = clock()      # leave the probe out of the window
            for _ in range(sizes.per_block):
                one_frame(timed=True)
            with _span(tracer, "calib"):
                o.calib_ms.append(calibration_probe())
    o.wall_s, o.cpu_s = clock() - wall0, time.process_time() - cpu0
    # a window is its 50 frames, each with the drains and churn it is due
    o.quiet_ops_per_s = (sum(o.window_ops) / len(o.window_ops)
                         / float(quiet_repeat(o.repeat_s).sum()))
    o.blocked_ms = publish_ms
    o.viz = sizes.timed

    total = sizes.warmup + sizes.timed
    expected = list(range(total))
    for s in fast:
        if s.stats.steps != expected:
            o.fail(f"{s.label}: delivered steps are not 0..{total - 1} once each",
                   ops=sizes.timed)
    dropped = 0
    for s in retired + list(slow.values()):
        s.drain()
        stats = s.stats
        dropped += stats.dropped
        if any(b <= a for a, b in zip(stats.steps, stats.steps[1:])):
            o.fail(f"{s.label}: delivered steps are not strictly increasing")
        if stats.delivered + stats.dropped != stats.offered:
            o.fail(f"{s.label}: delivered + dropped != offered")
    stats = mesh.stats()
    if stats["stalls"]:
        o.fail(f"{stats['stalls']} publish stalls")
    if stats["frames_published"] != total:
        o.fail(f"{stats['frames_published']} frames published, expected {total}")
    o.counts = {
        "serve.connect_us_p50": median(connect_us) if connect_us else 0.0,
        "serve.replay_us_p50": median(replay_us) if replay_us else 0.0,
        "serve.dropped_frames": dropped,
        "serve.cache_hit_ratio": stats["cache"]["hit_rate"],
        "serve.stalls": stats["stalls"],
        "serve.interned_mb": stats["store"]["payload_bytes"] / 2**20,
    }
    o.artifact_digest = _sha256(
        [hashlib.sha256(b"".join(frames)).hexdigest(), total, sum(o.window_ops),
         backfilled, dropped]
    )
    return o


def run_workload(name, seed, seconds, quick, out_dir, setup_only=False,
                 tracer=None) -> Outcome:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name in ("pb_solve", "pb_insitu"):
        return _run_pb(name, seed, seconds, quick, out_dir, setup_only, tracer)
    if name == "rbc_intransit":
        return _run_rbc(seed, seconds, quick, out_dir, setup_only, tracer)
    if name == "serve_fanout":
        return _run_serve(seed, seconds, quick, out_dir, setup_only, tracer)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
