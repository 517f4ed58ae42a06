"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

``info``
    Print the modeled machine specifications (Polaris, JUWELS Booster).
``run``
    Run a built-in case with an optional SENSEI XML configuration —
    the whole paper workflow from one command.
``render``
    Posthoc-render a ``.fld`` checkpoint into PNG images (the offline
    complement to the in situ pipeline).
``intransit``
    Run the in transit topology: simulation ranks stream to a fleet
    of SENSEI endpoint ranks (fixed membership; lease-based loss
    recovery, rebalance, work stealing).
``bench``
    Regenerate a paper figure/table.
``serve``
    Run a case with the live serving layer attached: frames stream to
    connected clients while the simulation advances, and steering
    commands flow back (see docs/serving.md).
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from repro.util.sizes import format_bytes

_CASES = ("cavity", "pebble", "rbc")
_FIGURES = ("fig2", "fig3", "fig5", "fig6", "storage", "ablations",
            "compression", "report")


def _build_case(name: str, steps: int | None, order: int | None, par: str | None):
    from repro.nekrs.cases import (
        lid_cavity_case,
        pebble_bed_case,
        rayleigh_benard_case,
    )

    if name == "cavity":
        case = lid_cavity_case()
    elif name == "pebble":
        case = pebble_bed_case(num_pebbles=5, elements_per_unit=3, order=4,
                               num_steps=30)
    elif name == "rbc":
        case = rayleigh_benard_case(aspect=(2, 1), elements_per_unit=3,
                                    num_steps=50)
    else:
        raise SystemExit(f"unknown case {name!r}; choose from {_CASES}")
    overrides = {}
    if par:
        from repro.nekrs.parfile import par_to_overrides, read_par

        overrides.update(par_to_overrides(read_par(par)))
    if steps is not None:
        overrides["num_steps"] = steps
    if order is not None:
        overrides["order"] = order
    return case.with_overrides(**overrides) if overrides else case


def cmd_info(args) -> int:
    from repro.machine import JUWELS_BOOSTER, POLARIS

    for spec in (POLARIS, JUWELS_BOOSTER):
        node = spec.node
        print(f"{spec.name}")
        print(f"  nodes            : {spec.num_nodes}")
        print(f"  node             : {node.cpu_sockets}x {node.cores_per_socket}c CPU, "
              f"{format_bytes(node.mem_bytes)} RAM")
        print(f"  GPUs/node        : {node.gpus_per_node}x {node.gpu.name}")
        print(f"  NICs/node        : {node.nics_per_node}x {node.nic.name} "
              f"({node.nic.bw_gbs:g} GB/s, {node.nic.latency_s * 1e6:g} us)")
        print(f"  filesystem       : {spec.fs.name} "
              f"({spec.fs.aggregate_write_gbs:g} GB/s aggregate)")
        print(f"  total ranks      : {spec.total_ranks} (1 per GPU)")
        print()
    return 0


def _override_catalyst(config_xml: str, **attrs: str | None) -> str:
    """Force the non-empty `attrs` onto every catalyst analysis element."""
    import xml.etree.ElementTree as ET

    attrs = {key: value for key, value in attrs.items() if value}
    if not attrs:
        return config_xml
    root = ET.fromstring(config_xml)
    for el in root.iter("analysis"):
        if el.get("type") == "catalyst":
            el.attrib.update(attrs)
    return ET.tostring(root, encoding="unicode")


def cmd_run(args) -> int:
    from repro.insitu import Bridge
    from repro.nekrs import NekRSSolver
    from repro.occa import Device
    from repro.parallel import run_spmd

    case = _build_case(args.case, args.steps, args.order, args.par)
    config_xml = (
        Path(args.config).read_text() if args.config else "<sensei></sensei>"
    )
    config_xml = _override_catalyst(
        config_xml, compositing=args.compositing, residency=args.residency
    )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    def body(comm):
        device = Device(args.device)
        solver = NekRSSolver(case, comm, device)
        bridge = Bridge(solver, config_xml=config_xml, output_dir=outdir)
        reports = solver.run(observer=bridge.observer)
        bridge.finalize()
        return {
            "steps": len(reports),
            "time": solver.time,
            "cfl": reports[-1].cfl if reports else 0.0,
            "insitu_s": bridge.insitu_seconds,
            "d2h": device.transfers.d2h_bytes,
        }

    results = run_spmd(args.ranks, body)
    print(f"case {case.name}: {results[0]['steps']} steps to t={results[0]['time']:.4g}")
    for rank, r in enumerate(results):
        print(
            f"  rank {rank}: CFL={r['cfl']:.3f} in-situ={r['insitu_s']:.3f}s "
            f"GPU->CPU={format_bytes(r['d2h'])}"
        )
    artifacts = [p for p in sorted(outdir.rglob("*")) if p.is_file()]
    if artifacts:
        print(f"artifacts under {outdir}/: {len(artifacts)} files, "
              f"{format_bytes(sum(p.stat().st_size for p in artifacts))}")
    return 0


def cmd_render(args) -> int:
    from repro.catalyst import RenderPipeline, RenderSpec
    from repro.nekrs.checkpoint import read_checkpoint
    from repro.nekrs import NekRSSolver
    from repro.parallel import SerialCommunicator
    from repro.insitu import NekDataAdaptor
    from repro.sensei.analyses.catalyst_adaptor import gather_uniform_volume
    from repro.util.png import write_png

    header, fields = read_checkpoint(args.checkpoint)
    if header.size != 1:
        raise SystemExit(
            "render expects a single-rank checkpoint; re-dump with --ranks 1"
        )
    case = _build_case(args.case, None, None, args.par)
    comm = SerialCommunicator()
    solver = NekRSSolver(case, comm)
    if solver.mesh.field_shape() != header.field_shape:
        raise SystemExit(
            f"checkpoint shape {header.field_shape} does not match case "
            f"{args.case!r} mesh {solver.mesh.field_shape()}; pass the same "
            "case/order/par the run used"
        )
    for name, arr in fields.items():
        target = {
            "velocity_x": solver.u, "velocity_y": solver.v,
            "velocity_z": solver.w, "pressure": solver.p,
            "temperature": solver.T,
        }.get(name)
        if target is not None:
            target[:] = arr

    adaptor = NekDataAdaptor(solver)
    adaptor.set_data_time_step(header.step)
    adaptor.set_data_time(header.time)
    image = gather_uniform_volume(comm, adaptor, "uniform", (args.array,))
    specs = [RenderSpec(kind="slice", array=args.array, axis=args.slice_axis)]
    if args.isovalue is not None:
        specs.insert(
            0, RenderSpec(kind="contour", array=args.array, isovalue=args.isovalue)
        )
    pipe = RenderPipeline(specs=specs, width=args.size, height=args.size,
                          name=Path(args.checkpoint).stem)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, frame in pipe.render(image, header.step, header.time):
        path = outdir / f"{name}.png"
        nbytes = write_png(path, frame)
        print(f"wrote {path} ({format_bytes(nbytes)})")
    return 0


def cmd_trace(args) -> int:
    from repro.bench.measure import measure_insitu_profile, measure_intransit_profiles
    from repro.bench.workloads import weak_scaled_rbc_case
    from repro.observe import TelemetrySession

    case = _build_case(args.case, args.steps, args.order, None)
    steps = args.steps or min(case.num_steps, 4)
    session = TelemetrySession(label=f"{args.case}-{args.mode}")
    outdir = Path(args.output)

    if args.intransit:
        def case_builder(nsim):
            return weak_scaled_rbc_case(
                nsim, elements_per_rank=4, order=3, num_steps=steps
            )

        mode = "none" if args.mode == "original" else args.mode
        measure_intransit_profiles(
            case_builder,
            mode,
            total_ranks=args.ranks,
            steps=steps,
            stream_interval=args.interval,
            ratio=2,
            output_dir=outdir / "artifacts",
            session=session,
        )
    else:
        measure_insitu_profile(
            case,
            args.mode,
            ranks=args.ranks,
            steps=steps - steps % args.interval or args.interval,
            interval=args.interval,
            output_dir=outdir / "artifacts",
            color_array="pressure" if args.case == "cavity" else "temperature",
            session=session,
        )

    trace_path = session.write_chrome_trace(outdir / "trace.json")
    prom_path = session.write_prometheus(outdir / "metrics.prom")
    json_path = session.write_json(outdir / "telemetry.json")
    print(session.flame_summary())
    print()
    mem = session.memory_aggregate()
    if mem:
        print("memory high-water marks (summed over ranks):")
        for category in sorted(mem):
            print(f"  {category:<22} {format_bytes(mem[category])}")
        print()
    for path in (trace_path, prom_path, json_path):
        print(f"wrote {path}")
    print("open trace.json in https://ui.perfetto.dev or chrome://tracing")
    return 0


#: default serving pipeline: a colormapped slice of the case's most
#: interesting array, rendered every step so the stream stays live
_SERVE_XML = """\
<sensei>
  <analysis type="catalyst" array="{array}" slice_axis="y"
            width="256" height="256" frequency="1" name="{name}"/>
</sensei>
"""


def cmd_serve(args) -> int:
    from repro.insitu import Bridge
    from repro.nekrs import NekRSSolver
    from repro.observe import TelemetrySession
    from repro.observe.live import LivePlane
    from repro.parallel import run_spmd
    from repro.serve import (
        HttpFrameServer,
        LoopbackClient,
        ServeMesh,
        SteeringBus,
        attach_serving,
    )

    from repro.codec import CodecContext, CodecSpec

    case = _build_case(args.case, args.steps, args.order, None)
    if args.config:
        config_xml = Path(args.config).read_text()
    else:
        config_xml = _SERVE_XML.format(
            array="pressure" if args.case == "cavity" else "temperature",
            name=case.name,
        )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    codec = CodecSpec.from_cli(args.codec, args.error_budget)
    router = None
    if args.route != "intransit":
        from repro.insitu.router import HybridRouter, RouterPolicy

        policy = (
            RouterPolicy(wire_budget_bytes=args.wire_budget * 2**20)
            if args.wire_budget else RouterPolicy()
        )
        router = HybridRouter(policy, mode=args.route)

    # hub and bus are shared-memory singletons across the rank threads,
    # exactly like the SST broker in the in-transit topology; the live
    # plane sends its SLO advisories to the bus, and the hub's metrics
    # land on rank 0, the rank that publishes
    bus = SteeringBus()
    session = TelemetrySession("serve")
    plane = LivePlane(session, bus=bus)
    hub = ServeMesh(history=args.history, max_clients=args.max_clients,
                    telemetry=session.rank(0))
    server = None
    client = None
    if args.port is not None:
        server = HttpFrameServer(hub, bus, port=args.port, router=router,
                                 live=plane)
        port = server.start()
        print(f"serving on http://127.0.0.1:{port}")
        print("  GET /status, /frame/<stream>, /stream/<stream>, "
              "/replay/<stream>; POST /steer"
              + ("; GET /routes" if router is not None else ""))
    else:
        client = LoopbackClient(hub, bus, depth=args.history,
                                label="cli-loopback")

    def publish(stream, step, time, data, **kw):
        """hub.publish, gated by the router when one is configured."""
        if router is not None:
            decision = router.decide(step, kw.get("raw_nbytes") or len(data))
            if decision.route != "intransit":
                return None
        frame = hub.publish(stream, step, time, data, **kw)
        if router is not None:
            router.observe(kw.get("raw_nbytes") or len(data), len(data))
        return frame

    def body(comm):
        with session.activate(comm.rank):
            return rank_body(comm)

    def rank_body(comm):
        from repro.adios.marshal import StepPayload, marshal_step

        solver = NekRSSolver(case, comm)
        bridge = Bridge(solver, config_xml=config_xml, output_dir=outdir)
        attach_serving(bridge.analysis, hub, bus, comm=comm)
        if router is not None:
            # replace the straight hub hook with the routed one
            for _spec, adaptor in bridge.analysis.adaptors:
                if getattr(adaptor, "publisher", None) is not None:
                    adaptor.publisher = publish
        codec_ctx = CodecContext()

        def observer(s, report):
            keep = bridge.observer(s, report)
            if codec is not None and comm.rank == 0:
                # compress-and-stream the raw fields next to the rendered
                # frames: rank 0's block on the "fields" hub stream
                variables = {"pressure": solver.p}
                if solver.T is not None:
                    variables["temperature"] = solver.T
                payload = StepPayload(
                    step=report.step, time=report.time, rank=0,
                    variables=variables,
                )
                raw = sum(a.nbytes for a in variables.values())
                data = bytes(marshal_step(payload, codec=codec,
                                          context=codec_ctx))
                publish(
                    "fields", report.step, report.time, data,
                    encoding="rbp3" if codec.active else "rbp2",
                    raw_nbytes=raw,
                )
            return keep

        reports = solver.run(observer=observer)
        bridge.finalize()
        return {"steps": len(reports), "stopped": bridge.stop_requested}

    try:
        results = run_spmd(args.ranks, body)
        print(
            f"case {case.name}: {results[0]['steps']} steps"
            + (" (stopped by steering)" if results[0]["stopped"] else "")
        )
        if client is not None:
            hub.settle()    # every published frame is now in its queue
            client.drain()
            print(f"loopback client received {len(client.frames)} frames "
                  f"(steps {client.steps[:3]}...{client.steps[-3:]})"
                  if client.frames else "loopback client received 0 frames")
            client.close()
        stats = hub.stats()
        print(f"hub: {stats['frames_published']} frames published, "
              f"peak {stats['peak_clients']} client(s), "
              f"{stats['stalls']} stalls")
        store = stats["store"]
        if store["codec_raw_bytes"]:
            print(f"codec: {format_bytes(store['codec_raw_bytes'])} raw -> "
                  f"{format_bytes(store['codec_wire_bytes'])} stored "
                  f"({format_bytes(store['codec_bytes_saved'])} saved)")
        if router is not None:
            counts = router.route_counts
            print("routes: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    finally:
        if server is not None:
            server.stop()
        hub.close()         # once, after the drain: stops the pump thread
    return 0


def cmd_intransit(args) -> int:
    from repro.fleet import FleetConfig
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.parallel import run_spmd

    def case_builder(nsim):
        case = weak_scaled_rbc_case(
            nsim, elements_per_rank=args.elements, order=args.order
        )
        return case.with_overrides(num_steps=args.steps)

    from repro.codec import CodecSpec

    router_policy = None
    if args.wire_budget:
        from repro.insitu.router import RouterPolicy

        router_policy = RouterPolicy(wire_budget_bytes=args.wire_budget * 2**20)
    runner = InTransitRunner(
        case_builder,
        mode=args.mode,
        ratio=args.ratio,
        num_steps=args.steps,
        stream_interval=args.interval,
        arrays=("temperature", "velocity_magnitude"),
        output_dir=args.output,
        image_size=args.size,
        fleet=FleetConfig(lease_timeout=args.lease_timeout),
        codec=CodecSpec.from_cli(args.codec, args.error_budget),
        route=args.route,
        router_policy=router_policy,
    )
    results = run_spmd(args.ranks, runner.run)
    sims = [r for r in results if r.role == "simulation"]
    ends = [r for r in results if r.role == "endpoint"]
    print(
        f"in transit: {len(sims)} sim ranks + {len(ends)} endpoint ranks, "
        f"mode={args.mode}"
    )
    for r in sims:
        print(f"  sim {r.rank}: {r.steps} steps, "
              f"streamed {format_bytes(r.stream_bytes)}")
    codec_stats = sims[0].extra.get("codec") if sims else None
    if codec_stats and codec_stats["wire_bytes"]:
        print(f"codec: {format_bytes(codec_stats['raw_bytes'])} raw -> "
              f"{format_bytes(codec_stats['wire_bytes'])} on the wire "
              f"({codec_stats['ratio']:.2f}x)")
    routes = sims[0].extra.get("routes") if sims else None
    if routes:
        print("routes: " + ", ".join(f"{k}={v}" for k, v in routes.items()))
    for r in ends:
        print(f"  endpoint {r.rank}: {r.steps} steps, "
              f"received {format_bytes(r.stream_bytes)}, "
              f"wrote {format_bytes(r.files_bytes)}")
    stats = runner.last_coordinator.stats()
    print(
        f"fleet: epoch {stats['epoch']}, {stats['committed']} steps "
        f"committed, {stats['stolen']} stolen, "
        f"{stats['rebalances']} rebalance(s), "
        f"{stats['crashes_detected']} crash(es) detected"
    )
    for rec in stats["recoveries"]:
        kind = "planned" if rec["planned"] else "unplanned"
        print(
            f"  {kind} loss of endpoint {rec['eid']}: "
            f"{rec['streams_moved']} stream(s) moved, "
            f"{rec['tasks_requeued']} task(s) replayed in "
            f"{rec['recovery_seconds']:.3f}s"
        )
    return 0


def cmd_observe(args) -> int:
    import time as _time

    from repro.observe.live.export import render_top

    if args.url:
        import json as _json
        from urllib.error import HTTPError
        from urllib.request import urlopen

        base = args.url.rstrip("/")

        def fetch(path):
            with urlopen(base + path, timeout=5.0) as resp:
                return _json.loads(resp.read().decode())

        frames = 1 if args.once else args.frames
        for i in range(frames):
            try:
                health = fetch("/healthz")
                slo = fetch("/slo")
            except HTTPError as exc:
                if exc.code != 404:
                    raise
                print(f"observe top: {exc.url} answered 404: "
                      "no live plane attached", file=sys.stderr)
                return 2
            try:
                timeline = fetch("/timeline")
            except HTTPError as exc:
                if exc.code != 404:
                    raise
                timeline = None       # no steps retained yet
            print(render_top(health, slo, timeline))
            if i + 1 < frames:
                print()
                _time.sleep(args.interval)
        return 0

    # no --url: drive a small in-process in transit run and watch it live
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.observe import TelemetrySession
    from repro.observe.live import (
        LivePlane,
        healthz_payload,
        slo_payload,
        timeline_payload,
    )
    from repro.parallel import run_spmd

    def case_builder(nsim):
        case = weak_scaled_rbc_case(
            nsim, elements_per_rank=2, order=3, dt=1e-3
        )
        return case.with_overrides(num_steps=args.steps)

    session = TelemetrySession("observe-top")
    plane = LivePlane(session)

    def frame() -> str:
        code, timeline = timeline_payload(plane)
        return render_top(healthz_payload(plane), slo_payload(plane),
                          timeline if code == 200 else None)

    runner = InTransitRunner(
        case_builder,
        mode="catalyst",
        ratio=2,
        num_steps=args.steps,
        stream_interval=1,
        arrays=("temperature",),
        output_dir=args.output,
        image_size=48,
        session=session,
    )
    if args.once:
        run_spmd(args.ranks, runner.run)
        print(frame())
        return 0
    worker = threading.Thread(
        target=run_spmd, args=(args.ranks, runner.run), daemon=True
    )
    worker.start()
    while worker.is_alive():
        print(frame())
        print()
        worker.join(args.interval)
    worker.join()
    print(frame())
    return 0


def cmd_bench(args) -> int:
    import importlib

    if args.gate or args.record:
        from repro.perf.gate import TrajectoryError, run_gate

        try:
            report = run_gate(Path.cwd(), record=args.record)
        except TrajectoryError as exc:
            print(f"bench --gate: {exc}", file=sys.stderr)
            return 2
        print(report.render())
        return 0 if report.ok else 1
    if args.figure is None:
        raise SystemExit("bench: provide a figure name or --gate")
    if args.figure == "report":
        from repro.bench.report import build_report

        print(build_report(quick=True))
        return 0
    if args.figure == "ablations":
        from repro.bench import ablations

        print(ablations.insitu_frequency().render())
        print()
        print(ablations.sst_queue().render())
        print()
        print(ablations.endpoint_ratio().render())
        return 0
    module = importlib.import_module(f"repro.bench.{args.figure}")
    kwargs = {}
    if args.quick:
        if args.figure in ("fig5", "fig6"):
            kwargs["measure_kwargs"] = dict(
                total_ranks=3, steps=4, stream_interval=2, ratio=2, order=3,
                elements_per_rank=4,
            )
        elif args.figure == "compression":
            kwargs["measure_kwargs"] = dict(
                rbc_ranks=4, rbc_order=3, pebble_count=3, pebble_order=3,
                steps=4,
            )
        else:
            kwargs["measure_kwargs"] = dict(
                ranks=2, steps=4, interval=2, num_pebbles=3, order=3
            )
    print(module.run(**kwargs).render())
    return 0


def _add_codec_args(parser) -> None:
    """The shared --codec / --error-budget / --route flag family."""
    from repro.codec import CLI_CODECS

    parser.add_argument(
        "--codec",
        choices=CLI_CODECS,
        default=None,
        help="compress streamed field payloads (RBP3 wire frames); "
             "'lossless' keeps frames byte-identical to an uncompressed run",
    )
    parser.add_argument(
        "--error-budget", default=None,
        help="per-field bound for lossy codecs: '1e-3' or 'rel:1e-3' "
             "(range-relative), 'abs:0.05' (absolute); default rel:1e-3",
    )
    parser.add_argument(
        "--route", choices=("insitu", "intransit", "hybrid"),
        default="intransit",
        help="visualization routing: stream everything (intransit, the "
             "default), render on the simulation side (insitu), or let "
             "the bandwidth-aware router pick per step (hybrid)",
    )
    parser.add_argument(
        "--wire-budget", type=float, default=None, metavar="MIB",
        help="hybrid route's per-step wire budget in MiB "
             "(default: the router's built-in budget)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NekRS x SENSEI in situ visualization reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print modeled machine specs").set_defaults(
        fn=cmd_info
    )

    run = sub.add_parser(
        "run", aliases=["insitu"], help="run a case with in situ analysis"
    )
    run.add_argument("--case", choices=_CASES, default="cavity")
    run.add_argument("--ranks", type=int, default=2)
    run.add_argument("--steps", type=int, default=None)
    run.add_argument("--order", type=int, default=None)
    run.add_argument("--par", help="NekRS-style .par override file")
    run.add_argument("--config", help="SENSEI XML configuration file")
    run.add_argument("--output", default="repro_output")
    run.add_argument("--device", choices=("serial", "cuda-sim"), default="cuda-sim")
    run.add_argument("--compositing",
                     choices=("gather", "sort_last"),
                     default=None,
                     help="override where every catalyst analysis renders: "
                          "gather the volume to rank 0, or render on every "
                          "rank and depth-composite (sort_last)")
    run.add_argument("--residency", choices=("host", "device"), default=None,
                     help="where every catalyst analysis keeps its working "
                          "set: host copies fields over PCIe each step; "
                          "device renders on the GPU and ships only the "
                          "composited tile")
    run.set_defaults(fn=cmd_run)

    render = sub.add_parser("render", help="posthoc-render a .fld checkpoint")
    render.add_argument("checkpoint")
    render.add_argument("--case", choices=_CASES, required=True)
    render.add_argument("--par", help=".par file the run used")
    render.add_argument("--array", default="pressure")
    render.add_argument("--isovalue", type=float, default=None)
    render.add_argument("--slice-axis", choices=("x", "y", "z"), default="y")
    render.add_argument("--size", type=int, default=512)
    render.add_argument("--output", default="render_output")
    render.set_defaults(fn=cmd_render)

    trace = sub.add_parser(
        "trace",
        help="run a traced workload; export Chrome trace + Prometheus metrics",
    )
    trace.add_argument("--case", choices=_CASES, default="pebble")
    trace.add_argument("--mode", choices=("original", "checkpoint", "catalyst"),
                       default="catalyst")
    trace.add_argument("--ranks", type=int, default=2)
    trace.add_argument("--steps", type=int, default=4)
    trace.add_argument("--order", type=int, default=3)
    trace.add_argument("--interval", type=int, default=2)
    trace.add_argument("--intransit", action="store_true",
                       help="trace the in transit (SST) topology instead")
    trace.add_argument("--output", default="trace_output")
    trace.set_defaults(fn=cmd_trace)

    serve = sub.add_parser(
        "serve", help="run a case with live frame streaming and steering"
    )
    serve.add_argument("--case", choices=_CASES, default="cavity")
    serve.add_argument("--ranks", type=int, default=2)
    serve.add_argument("--steps", type=int, default=None)
    serve.add_argument("--order", type=int, default=None)
    serve.add_argument("--config", help="SENSEI XML configuration file "
                       "(default: a single catalyst slice pipeline)")
    serve.add_argument("--port", type=int, default=None,
                       help="serve HTTP on this port (0 picks a free one); "
                            "omit for in-process loopback mode")
    serve.add_argument("--history", type=int, default=32,
                       help="frames kept per stream for /replay")
    serve.add_argument("--max-clients", type=int, default=None,
                       help="refuse connections beyond this many clients")
    serve.add_argument("--output", default="serve_output")
    _add_codec_args(serve)
    serve.set_defaults(fn=cmd_serve)

    intransit = sub.add_parser(
        "intransit",
        help="run the in transit topology (simulation ranks -> endpoint fleet)",
    )
    intransit.add_argument("--mode", choices=("checkpoint", "catalyst"),
                           default="catalyst")
    intransit.add_argument("--ranks", type=int, default=6)
    intransit.add_argument("--ratio", type=int, default=2,
                           help="sim ranks per endpoint rank (sizes the "
                                "endpoint pool)")
    intransit.add_argument("--steps", type=int, default=4)
    intransit.add_argument("--interval", type=int, default=1)
    intransit.add_argument("--order", type=int, default=3)
    intransit.add_argument("--elements", type=int, default=4,
                           help="mesh elements per simulation rank")
    intransit.add_argument("--size", type=int, default=128)
    intransit.add_argument("--lease-timeout", type=float, default=0.25,
                           help="seconds without a heartbeat before an "
                                "endpoint is declared dead")
    intransit.add_argument("--output", default="intransit_output")
    _add_codec_args(intransit)
    intransit.set_defaults(fn=cmd_intransit)

    observe = sub.add_parser(
        "observe", help="live telemetry tools (dashboard, SLO watch)"
    )
    obs_sub = observe.add_subparsers(dest="observe_command", required=True)
    top = obs_sub.add_parser(
        "top",
        help="terminal dashboard: stage latencies, SLO burn, timelines",
    )
    top.add_argument("--url", default=None,
                     help="poll a running server's /healthz + /slo + "
                          "/timeline instead of launching a demo run")
    top.add_argument("--once", action="store_true",
                     help="render a single dashboard frame and exit")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between dashboard frames")
    top.add_argument("--frames", type=int, default=10,
                     help="frames to render in --url mode (without --once)")
    top.add_argument("--ranks", type=int, default=3,
                     help="ranks for the in-process demo run (no --url)")
    top.add_argument("--steps", type=int, default=3,
                     help="steps for the in-process demo run (no --url)")
    top.add_argument("--output", default="observe_output")
    top.set_defaults(fn=cmd_observe)

    bench = sub.add_parser(
        "bench", help="regenerate a paper figure/table, or run the perf gate"
    )
    bench.add_argument("figure", nargs="?", choices=_FIGURES)
    bench.add_argument("--quick", action="store_true",
                       help="use the smallest measurement workload")
    bench.add_argument("--gate", action="store_true",
                       help="run the perf regression gate: optimized/reference "
                            "twin ratios of seven kernels against the best "
                            "ratio in ./BENCH_<n>.json; writes nothing")
    bench.add_argument("--record", type=Path, metavar="BENCH_<n>.json",
                       help="run the gate and write its ratios as the next "
                            "file of the trajectory")
    bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
