"""Serving bench: thousands of concurrent viewers against one ServeMesh.

The acceptance scenario for ``repro.serve``: a publisher streaming
PNG frames into a :class:`~repro.serve.ServeMesh` while a mixed client
population consumes them over the loopback transport — fast clients
that drain every frame, slow clients that wake rarely (the
drop-to-latest path), and churning clients that disconnect and
reconnect mid-run (reusing the :class:`~repro.faults.FaultInjector`
so the churn schedule is reproducible).  Clients are multiplexed onto
a small worker pool, the same way an async transport multiplexes
sockets onto an event loop, so "100k concurrent clients" means 100k
live sessions, not 100k OS threads.

Measured: delivery throughput, p50/p99 frame latency on a probe
population (delivery time minus ``Frame.published_at``), dropped /
rate-limited frames, per-client fairness among the fast population,
edge-cache hit rate, and — the invariant the mesh exists for — **zero
publisher stalls**: the simulation thread must never wait on a viewer.

``python -m repro.bench.serving`` prints the table and the report
driver embeds it as the "Serving" section.  The pinned end-to-end
numbers for this layer are the ``serve_fanout`` workload of
``benchmarks/e2e``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.faults import FaultInjector
from repro.observe import Telemetry, active
from repro.serve import HubFull, ServeMesh
from repro.util.png import encode_png
from repro.util.sizes import format_bytes
from repro.util.tables import Table


def synthetic_frames(count: int = 8, size: int = 64, seed: int = 0) -> list[bytes]:
    """A cycle of pre-encoded PNG payloads (distinct, realistic sizes)."""
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(count):
        img = np.zeros((size, size, 3), dtype=np.uint8)
        x = np.linspace(0, 4 * np.pi, size)
        img[:, :, 0] = (127 + 120 * np.sin(x + i)).astype(np.uint8)[None, :]
        img[:, :, 1] = rng.integers(0, 32, size=(size, size), dtype=np.uint8)
        img[:, :, 2] = i * (255 // max(count - 1, 1))
        frames.append(encode_png(img))
    return frames


def synthetic_field_frames(
    count: int = 8, size: int = 16, codec: str = "delta-rle",
    budget: str = "1e-3", seed: int = 0,
) -> list[tuple[bytes, int]]:
    """Codec-encoded RBP3 payloads, as rank 0's ``fields`` stream
    publishes them: a smoothly evolving pressure/temperature pair
    marshalled through one temporal :class:`CodecContext`.  Returns
    ``(wire_bytes, raw_nbytes)`` pairs."""
    from repro.adios.marshal import StepPayload, marshal_step
    from repro.codec import CodecContext, CodecSpec

    spec = CodecSpec.from_cli(codec, budget, temporal=True)
    ctx = CodecContext()
    rng = np.random.default_rng(seed)
    z, y, x = np.meshgrid(*(np.arange(size, dtype=float),) * 3, indexing="ij")
    noise = 1e-4 * rng.normal(size=x.shape)
    frames = []
    for i in range(count):
        p = np.cos(0.21 * x + 0.03 * i) * np.sin(0.17 * y) + 0.05 * z + noise
        t = np.tanh(0.1 * (z - size / 2 + 0.2 * i)) + 0.3 * np.cos(0.2 * x)
        payload = StepPayload(
            step=i, time=i * 1e-2, rank=0,
            variables={"pressure": p, "temperature": t},
        )
        raw = sum(v.nbytes for v in payload.variables.values())
        frames.append((marshal_step(payload, codec=spec, context=ctx), raw))
    return frames


def run_mesh_load(
    clients: int = 2000,
    frames: int = 48,
    relays: int = 4,
    workers: int = 8,
    slow_every: int = 5,
    slow_fraction: float = 0.2,
    churn_probability: float = 0.0005,
    probe_clients: int = 64,
    seed: int = 11,
    history: int = 32,
    depth: int = 2,
    payload_size: int = 48,
    publish_interval_s: float = 0.002,
    kill_relay_at_frame: int | None = None,
    lease_timeout_s: float = 0.5,
    max_clients: int | None = None,
    codec: str | None = None,
    codec_budget: str = "1e-3",
) -> dict:
    """Drive the serving mesh with a mixed client population; raw stats.

    Client ``i`` is *slow* when ``i % int(1/slow_fraction) == 0`` — it
    only drains its queue every ``slow_every``-th service round, so
    backpressure must drop frames for it.  Churn fires per (frame,
    client) through a seeded :class:`FaultInjector` — the draw sites
    are the fixed ``frames x clients`` grid, never the timing-dependent
    service-round count, so the disconnect schedule (and the churn
    total) is identical run to run; the grid is drawn with
    :meth:`FaultInjector.fires_grid` (the per-call draw would cost
    ~10us x frames x clients, prohibitive at 100k).
    Because a full sweep over 100k sessions takes longer than a frame
    interval, end-to-end latency is measured on a small *probe*
    population drained in a tight loop (synthetic monitoring), while
    the bulk population feeds throughput, fairness and backpressure.

    ``kill_relay_at_frame`` crashes the busiest relay once that frame
    is out; the run then waits for lease expiry + migration and the
    result records whether every migrated session kept a strictly
    increasing delivered-step sequence (``monotonic_violations``).

    With a ``codec`` the publisher mirrors the serve CLI's rank-0
    ``fields`` stream: RBP3 payloads ride the same mesh/store path and
    the store's interning accounts their raw-vs-wire savings (viewers
    subscribe to the rendered stream only).
    """
    if clients < 1 or frames < 1:
        raise ValueError("need at least one client and one frame")
    # the publisher thread carries real telemetry so the frame store's
    # refcount-aware `serve.framestore` charge lands in a MemoryMeter
    pub_tel = Telemetry.create(rank=0)
    mesh = ServeMesh(
        relays=relays,
        history=history,
        default_depth=depth,
        max_clients=max_clients,
        lease_timeout_s=lease_timeout_s,
        poll_interval_s=0.001,
        telemetry=pub_tel,
        seed=seed,
    )
    injector = FaultInjector(
        seed=seed, probabilities={"endpoint_crash": churn_probability}
    )
    churn_steps = {
        cid: sorted(fired)
        for cid, fired in injector.fires_grid(
            "endpoint_crash", "serve.client", range(frames), range(clients)
        ).items()
    }
    churn_idx = {cid: 0 for cid in range(clients)}
    payloads = synthetic_frames(size=payload_size, seed=seed)
    field_payloads = (
        synthetic_field_frames(codec=codec, budget=codec_budget, seed=seed)
        if codec else []
    )
    streams = ("catalyst",) if codec else None
    slow_modulus = max(int(round(1.0 / slow_fraction)), 1) if slow_fraction > 0 else 0
    probe_stride = max(clients // probe_clients, 1) if probe_clients else 0
    probes = set(range(0, clients, probe_stride)[:probe_clients]
                 if probe_stride else [])

    def is_probe(cid: int) -> bool:
        return cid in probes

    def is_slow(cid: int) -> bool:
        return (
            not is_probe(cid)
            and slow_modulus > 0
            and cid % slow_modulus == 0
        )

    sessions = {}
    for cid in range(clients):
        kind = (
            "probe" if is_probe(cid) else "slow" if is_slow(cid) else "fast"
        )
        sessions[cid] = mesh.connect(label=f"{kind}-{cid}", streams=streams)

    latencies: list[float] = []
    latency_lock = threading.Lock()
    done = threading.Event()
    churn_events = 0
    churn_lock = threading.Lock()
    retired: list = []
    killed_rid: int | None = None

    def publisher():
        nonlocal killed_rid
        with active(pub_tel):
            for i in range(frames):
                mesh.publish("catalyst", step=i, time=i * 1e-2,
                             data=payloads[i % len(payloads)])
                if field_payloads:
                    data, raw = field_payloads[i % len(field_payloads)]
                    mesh.publish("fields", step=i, time=i * 1e-2, data=data,
                                 encoding="rbp3", raw_nbytes=raw)
                if kill_relay_at_frame is not None and i == kill_relay_at_frame:
                    # crash the busiest relay: the thread dies silently,
                    # detection must come from the lease sweep
                    shard = mesh.shard_map()
                    killed_rid = int(
                        max(shard, key=lambda r: shard[r]["clients"])
                    )
                    mesh.kill_relay(killed_rid)
                if publish_interval_s:
                    time.sleep(publish_interval_s)
            if killed_rid is not None:
                # wait out the lease so migration happens in-run
                deadline = time.perf_counter() + 20 * lease_timeout_s
                while (
                    killed_rid in mesh.ring.members
                    and time.perf_counter() < deadline
                ):
                    mesh.check()
                    time.sleep(lease_timeout_s / 10)
                # one more publish drives backfilled queues to a head
                # every migrated client can drain
                mesh.publish("catalyst", step=frames, time=frames * 1e-2,
                             data=payloads[frames % len(payloads)])
        done.set()

    def probe_worker(wid: int, nworkers: int):
        owned = [cid for i, cid in enumerate(sorted(probes))
                 if i % nworkers == wid]
        local = []
        while owned:
            for cid in owned:
                frame = sessions[cid].take(block=False)
                while frame is not None:
                    local.append(time.perf_counter() - frame.published_at)
                    frame = sessions[cid].take(block=False)
            if done.is_set() and all(
                sessions[cid].backlog == 0 for cid in owned
            ):
                break
            time.sleep(0.0005)
        with latency_lock:
            latencies.extend(local)

    def worker(wid: int):
        nonlocal churn_events
        owned = [cid for cid in range(clients)
                 if cid % workers == wid and not is_probe(cid)]
        rnd = 0
        while True:
            finished = done.is_set()
            rnd += 1
            for cid in owned:
                session = sessions[cid]
                sched = churn_steps[cid]
                i = churn_idx[cid]
                churned = False
                while i < len(sched) and (
                    finished or sched[i] < mesh.frames_published
                ):
                    session.drain()
                    mesh.disconnect(session)
                    try:
                        sessions[cid] = mesh.connect(
                            label=session.label, streams=streams
                        )
                    except HubFull:
                        # budget taken between our release and re-grab
                        # (or the mesh is closing): the viewer stays gone
                        i = len(sched)
                        churned = True
                        break
                    with churn_lock:
                        churn_events += 1
                        retired.append((cid, session.stats))
                    session = sessions[cid]
                    i += 1
                    churned = True
                churn_idx[cid] = i
                if churned:
                    continue
                if is_slow(cid) and rnd % slow_every and not finished:
                    continue
                session.drain()
            if finished and all(
                sessions[cid].backlog == 0 for cid in owned
            ):
                break
            if not finished:
                time.sleep(0.001)

    t0 = time.perf_counter()
    nprobe_workers = min(2, len(probes)) or 0
    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(workers)
    ] + [
        threading.Thread(target=probe_worker, args=(w, nprobe_workers))
        for w in range(nprobe_workers)
    ]
    pub = threading.Thread(target=publisher)
    for t in threads:
        t.start()
    pub.start()
    pub.join()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    stats = [sessions[cid].stats for cid in range(clients)]
    stats.extend(s for _cid, s in retired)
    per_client = [sessions[cid].stats.delivered for cid in range(clients)]
    churned_cids = {cid for cid, _s in retired}
    for cid, s in retired:
        per_client[cid] += s.delivered
    delivered = sum(s.delivered for s in stats)
    # committed steps must be strictly increasing per session — across
    # churn reincarnations and relay handoffs alike
    monotonic_violations = sum(
        1 for s in stats
        if any(b <= a for a, b in zip(s.steps, s.steps[1:]))
    )
    lat = np.asarray(latencies) if latencies else np.zeros(1)
    # fairness is a steady-state property: clients that churned or sat
    # on the crashed relay legitimately missed frames (drop-to-latest
    # skips, it never replays an outage), so they are excluded — the
    # migration itself is gated by monotonic_violations + migrations
    migrated_cids: set = set()
    if killed_rid is not None:
        from repro.fleet import HashRing

        ring0 = HashRing(range(relays), seed=seed)
        migrated_cids = {
            cid for cid in range(clients)
            if ring0.assign(sessions[cid].key) == killed_rid
        }
    fast_counts = np.asarray(
        [n for cid, n in enumerate(per_client)
         if not is_slow(cid) and not is_probe(cid)
         and cid not in churned_cids and cid not in migrated_cids] or [0]
    )
    mesh_stats = mesh.stats()
    result = {
        "clients": clients,
        "relays": relays,
        "peak_clients": mesh.peak_clients,
        "frames_published": mesh.frames_published,
        "stalls": mesh.stalls,
        "max_publish_ms": mesh.max_publish_s * 1e3,
        "elapsed_s": elapsed,
        "delivered": delivered,
        "throughput_fps": delivered / elapsed if elapsed > 0 else 0.0,
        "bytes_out": sum(s.bytes_out for s in stats),
        "dropped": sum(s.dropped for s in stats),
        "rate_limited": sum(s.rate_limited for s in stats),
        "latency_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "fast_delivered_min": int(fast_counts.min()),
        "fast_delivered_max": int(fast_counts.max()),
        "fairness": float(fast_counts.min() / fast_counts.max())
        if fast_counts.max() else 1.0,
        "churn_events": churn_events,
        "monotonic_violations": monotonic_violations,
        "migrated_clients": len(migrated_cids),
        "killed_relay": killed_rid,
        "migrations": mesh_stats["migrations"],
        "cache": mesh_stats["cache"],
        "shard_map": mesh_stats["shard_map"],
        "notifies": sum(
            r["notifies"] for r in mesh_stats["relays"].values()
        ),
        "store": mesh_stats["store"],
        "framestore_hwm_bytes": pub_tel.memory.peaks().get(
            "serve.framestore", 0
        ),
    }
    mesh.close()
    return result


MESH_GATES = {
    "p99_ms": 1000.0,
    "fairness_min": 0.5,
    "cache_hit_rate_min": 0.5,
}


def check_mesh_gate(result: dict, **overrides) -> list[str]:
    """The mesh acceptance gates; returns human-readable failures.

    Gates: zero publisher stalls (the simulation never waits on a
    viewer), probe p99 latency, fast-population fairness, edge-cache
    hit rate, and zero per-session step-monotonicity violations
    (nothing lost or reordered across churn or relay handoff).
    """
    gates = {**MESH_GATES, **overrides}
    failures = []
    if result["stalls"]:
        failures.append(f"publisher stalled {result['stalls']}x (want 0)")
    if result["latency_p99_ms"] > gates["p99_ms"]:
        failures.append(
            f"p99 latency {result['latency_p99_ms']:.1f}ms "
            f"> {gates['p99_ms']:.1f}ms"
        )
    if result["fairness"] < gates["fairness_min"]:
        failures.append(
            f"fairness {result['fairness']:.2f} < {gates['fairness_min']}"
        )
    if result["cache"]["hit_rate"] < gates["cache_hit_rate_min"]:
        failures.append(
            f"cache hit rate {result['cache']['hit_rate']:.2f} "
            f"< {gates['cache_hit_rate_min']}"
        )
    if result["monotonic_violations"]:
        failures.append(
            f"{result['monotonic_violations']} sessions delivered "
            "non-increasing steps (want 0)"
        )
    return failures


def mesh_serving_table(**kwargs) -> Table:
    """The mesh table: sharded fan-out at 100k-client scale."""
    out = run_mesh_load(**kwargs)
    table = Table(
        ["metric", "value"],
        title=(
            "Serving mesh — sharded relay fan-out "
            f"({out['clients']} clients on {out['relays']} relays, "
            f"{out['frames_published']} frames published)"
        ),
    )
    table.add_row(["delivered frames", out["delivered"]])
    table.add_row(["throughput [frames/s]", f"{out['throughput_fps']:.0f}"])
    table.add_row(["bytes out", format_bytes(out["bytes_out"])])
    table.add_row(["probe latency p50 [ms]", out["latency_p50_ms"]])
    table.add_row(["probe latency p99 [ms]", out["latency_p99_ms"]])
    table.add_row(["dropped (backpressure)", out["dropped"]])
    table.add_row(
        ["fairness (min/max fast-client frames)",
         f"{out['fast_delivered_min']}/{out['fast_delivered_max']}"
         f" = {out['fairness']:.2f}"]
    )
    table.add_row(["client churn events", out["churn_events"]])
    table.add_row(["publisher stalls", out["stalls"]])
    table.add_row(["max publish [ms]", out["max_publish_ms"]])
    table.add_row(
        ["publisher wakeups (O(relays) per frame)",
         f"{out['notifies']} = {out['frames_published']} frames x "
         f"{out['relays']} relays"]
    )
    cache = out["cache"]
    table.add_row(
        ["edge cache",
         f"{cache['hits']} hits / {cache['misses']} misses "
         f"= {cache['hit_rate']:.2f} hit rate"]
    )
    table.add_row(["step monotonicity violations", out["monotonic_violations"]])
    store = out["store"]
    table.add_row(
        ["frame store", format_bytes(store["payload_bytes"])
         + f" held, {store['frames_deduped']} dedup hits"]
    )
    table.add_row(
        ["frame store HWM (serve.framestore)",
         format_bytes(out["framestore_hwm_bytes"])
         + f" metered, {format_bytes(store['peak_payload_bytes'])}"
           " store peak"]
    )
    if store["codec_raw_bytes"]:
        ratio = store["codec_raw_bytes"] / max(store["codec_wire_bytes"], 1)
        table.add_row(
            ["interned codec frames (fields stream)",
             f"{format_bytes(store['codec_raw_bytes'])} raw -> "
             f"{format_bytes(store['codec_wire_bytes'])} stored "
             f"({ratio:.1f}x, {format_bytes(store['codec_bytes_saved'])}"
             " saved)"]
        )
    if out["killed_relay"] is not None:
        moved = sum(
            m["sessions_moved"] for m in out["migrations"]
            if m["kind"] == "crash"
        )
        table.add_row(
            ["relay crash",
             f"relay {out['killed_relay']} killed; {moved} sessions "
             "migrated via lease expiry"]
        )
    failures = check_mesh_gate(out)
    table.add_row(
        ["acceptance gates", "all passing" if not failures
         else "; ".join(failures)]
    )
    return table


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="serving load bench")
    parser.add_argument("--clients", type=int, default=2000,
                        help="live sessions (the headline run is 100000)")
    parser.add_argument("--relays", type=int, default=8)
    parser.add_argument("--frames", type=int, default=48)
    parser.add_argument("--kill-at", type=int, default=None, metavar="FRAME",
                        help="crash the busiest relay once FRAME is published")
    cli_args = parser.parse_args()
    n = cli_args.clients
    # a frame interval the interpreter can actually fan out at this
    # scale (~1.5us of pump work per client per frame); 100k clients
    # -> ~6.7 fps, a realistic viz cadence
    interval = max(0.002, n * 1.5e-6)
    print(mesh_serving_table(
        clients=n,
        relays=cli_args.relays,
        frames=cli_args.frames,
        probe_clients=min(256, max(n // 8, 1)),
        kill_relay_at_frame=cli_args.kill_at,
        publish_interval_s=interval,
        # the lease must outlive a GIL-contended fan-out pass (which
        # scales with the frame interval) but a crash outage is
        # lease-bound, so don't make a small run wait 100k's worth
        lease_timeout_s=min(2.0, max(0.5, 20 * interval)),
    ).render())
