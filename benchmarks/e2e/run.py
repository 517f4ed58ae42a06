#!/usr/bin/env python3
"""End-to-end benchmark: one command, four workloads, metrics by name.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--quick] [--selfcheck N]

Each workload runs in a fresh child process pinned to one CPU with
single-threaded BLAS.  Without ``--trace`` the end-to-end metrics are
printed; with it the workload runs twice (untraced, then with
``trace.py``'s wrappers installed) and the per-layer metrics are
printed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero when a check fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SETUPS = 3      # set-ups per run; setup_s is their median
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_contract() -> dict:
    """BENCHMARK.json is the one list of workloads, metrics, units, bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def decile(values: list[float], k: int) -> float:
    """The k-th decile (1..9) of the samples; 0.0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=10, method="inclusive")[k - 1]


# -- child: one workload, one process ----------------------------------------

def pin_to_last_cpu() -> tuple[int | None, str]:
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu, "pinned"
    except (AttributeError, OSError) as exc:
        return None, f"NOT pinned ({type(exc).__name__}: {exc}); timings are noisier"


def child_main(args) -> int:
    cpu, pin_note = pin_to_last_cpu()
    sys.path.insert(0, str(ROOT / "src"))      # HERE is the script's directory
    import resource

    import numpy

    import trace
    import workloads

    tracer = None
    if args.trace:
        tracer = trace.Tracer()
        tracer.install()
    try:
        o = workloads.run_workload(
            args.workload, args.seed, args.seconds, args.quick, OUT,
            setup_only=args.setup_only, tracer=tracer,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"workload": args.workload, "setup_s": o.ready - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rates = [n / s for n, s in zip(o.window_ops, o.window_s)]
    values = {
        # quiet-machine statistics: see README, "Why best-of-run"
        "ops_per_s": o.quiet_ops_per_s or max(rates, default=0.0),
        "step_ms_min": o.quiet_step_ms or min(o.step_ms, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "driver.wall_s": o.wall_s,
        "driver.cpu_s": o.cpu_s,
        "driver.ops_per_s_p50": decile(rates, 5),
        "driver.step_ms_p50": decile(o.step_ms, 5),
        "driver.step_ms_p90": decile(o.step_ms, 9),
        "driver.blocked_ms_p10": decile(o.blocked_ms, 1),
        "driver.blocked_ms_p50": decile(o.blocked_ms, 5),
        "driver.blocked_ms_p90": decile(o.blocked_ms, 9),
        "driver.calib_ms_p10": decile(o.calib_ms, 1),
        "driver.calib_ms_p50": decile(o.calib_ms, 5),
    }
    values.update(o.counts)
    shares = {}
    if tracer is not None:
        spans = tracer.spans()
        summary = trace.summarize(spans)
        values.update(span_metrics(summary, o.viz))
        shares = {
            thread: {layer: seconds / summary.window_s
                     for layer, seconds in sorted(layers.items())}
            for thread, layers in sorted(summary.thread_layer_self_s.items())
        } if summary.window_s else {}
        trace.write_chrome_trace(spans, OUT / f"{args.workload}.trace.json")
    sizes = workloads.sizes_for(args.workload, args.seconds, args.quick)
    result.update(
        values=values, attempted=o.attempted, failed=o.failed,
        failures=o.failures, artifact_digest=o.artifact_digest, notes=o.notes,
        layer_shares=shares,
        env={
            "nproc": os.cpu_count(), "cpu": cpu, "pinning": pin_note,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "seed": args.seed, "seconds": args.seconds,
            "scale": args.seconds / workloads.FULL_SECONDS,
            "quick": args.quick, "traced": bool(args.trace),
            "warmup_ops": sizes.warmup, "blocks": sizes.blocks,
            "ops_per_block": sizes.per_block,
        },
    )
    raw = dict(result, window_ops=o.window_ops, window_s=o.window_s,
               calib_ms=o.calib_ms, step_ms=o.step_ms, blocked_ms=o.blocked_ms,
               repeat_s=o.repeat_s)
    suffix = ".traced" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.result.json").write_text(json.dumps(raw))
    print(json.dumps(result))
    return 0


def span_metrics(summary, viz: int) -> dict[str, float]:
    """Per-layer metrics that come from spans (see README: per-layer table)."""
    self_s, total_s, calls = summary.self_s, summary.total_s, summary.calls

    def self_of(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def total_of(*names):
        return sum(total_s.get(n, 0.0) for n in names)

    return {
        "driver.unattributed_share": (
            summary.unattributed_s / summary.timed_s if summary.timed_s else 0.0
        ),
        "nekrs.step_self_s": self_of("NekRSSolver.step"),
        "sem.cg_self_s": self_of("cg_solve"),
        "sem.cg_calls": calls.get("cg_solve", 0),
        "sem.gs_self_s": self_of("GatherScatter.__call__"),
        "sem.gs_calls": calls.get("GatherScatter.__call__", 0),
        "parallel.collective_s": summary.layer_self_s.get("parallel", 0.0),
        "parallel.collective_calls": summary.layer_roots.get("parallel", 0),
        "occa.copy_s": summary.layer_self_s.get("occa", 0.0),
        "insitu.update_s": total_of("Bridge.update"),
        "insitu.adaptor_self_s": self_of(
            "NekDataAdaptor.get_mesh", "NekDataAdaptor.add_array",
            "NekDataAdaptor.release_data",
        ),
        "insitu.streamed_consume_s": total_of("StreamedDataAdaptor.consume"),
        "sensei.execute_self_s": self_of(
            "ConfigurableAnalysis.execute", "CatalystAnalysisAdaptor.execute",
            "ADIOSAnalysisAdaptor.execute",
        ),
        "catalyst.contour_s": total_of("marching_tetrahedra"),
        "catalyst.slice_s": total_of("axis_slice"),
        "catalyst.raster_s": total_of("Rasterizer.draw_mesh"),
        "catalyst.render_self_s": self_of("RenderPipeline.render"),
        "catalyst.triangles_per_viz": (
            summary.values.get("Rasterizer.draw_mesh", 0) / viz if viz else 0.0
        ),
        "util.png_encode_s": total_of("encode_png"),
        "util.png_write_s": total_of("Path.write_bytes"),
        "adios.marshal_self_s": self_of("marshal_step"),
        "adios.unmarshal_self_s": self_of("unmarshal_step"),
        "adios.put_wait_s": total_of("SSTBroker.put", "SSTBroker.close_writer"),
        "adios.get_wait_s": total_of("SSTBroker.get"),
        "codec.encode_s": total_of("encode_field"),
        "codec.decode_s": total_of("decode_field"),
        "serve.publish_s": total_of("ServeMesh.publish"),
        "serve.store_put_s": total_of("FrameStore.put"),
        "serve.pump_s": total_of("SessionPump.pump_once"),
        "serve.take_s": total_of("take_sweep", "drain_sweep"),
    }


# -- parent: spawn, collect, print -------------------------------------------

def spawn(workload: str, args, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one child to completion and return the JSON it printed."""
    env = dict(os.environ)
    for key in _THREAD_ENV:      # must be set before the child imports NumPy
        env[key] = "1"
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--t0", repr(time.monotonic()),
    ]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, args, contract: dict) -> dict:
    """All children of one workload run; returns metrics + check verdict."""
    setups = 1 if args.quick else SETUPS
    probes = [spawn(workload, args, setup_only=True)["setup_s"]
              for _ in range(setups - 1)]
    run = spawn(workload, args)
    values = dict(run["values"])
    setups_s = probes + [run["setup_s"]]
    values["setup_s"] = median(setups_s)
    traced = None
    if args.trace:
        names = contract["per_layer"]
        traced = spawn(workload, args, trace=1)
        untraced_rate = values["ops_per_s"]
        values = dict(traced["values"])
        values["trace.overhead_ratio"] = (
            values["ops_per_s"] / untraced_rate if untraced_rate else 0.0
        )
    else:
        names = contract["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names
    }
    checked = [run] + ([traced] if traced else [])
    if traced and traced["artifact_digest"] != run["artifact_digest"]:
        traced["failures"].append("traced run's artifact digest differs")
        traced["failed"] += 1
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "failures": [f for r in checked for f in r["failures"]],
        "artifact_digest": run["artifact_digest"],
        "notes": run["notes"],
        "env": run["env"],
        "calib_ms_p50": run["values"]["driver.calib_ms_p50"],
        "setups_s": setups_s,
        "layer_shares": traced["layer_shares"] if traced else {},
    }


def report(result: dict) -> None:
    w = result["workload"]
    print(f"== {w}  seed={result['env']['seed']}  "
          f"digest={result['artifact_digest'][:16]}  "
          f"calib={result['calib_ms_p50']:.3f} ms")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("set-ups: " + " ".join(f"{s:.3f}" for s in result["setups_s"]) + " s")
    for name, m in result["metrics"].items():
        print(f"{w}/{name} = {m['value']:.6g} {m['unit']}")
    for thread, shares in result["layer_shares"].items():
        print(f"layer self time / timed wall on {thread}: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()
        ))
    for key, note in result["notes"].items():
        print(f"note {key}: {note}")
    print(f"checks: attempted={result['attempted']} failed={result['failed']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def final_line(results: list[dict], single: bool) -> str:
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics[name if single else f"{r['workload']}/{name}"] = m
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    })


def selfcheck(args, contract: dict, workloads: list[str]) -> int:
    """Two alternating sets of N untraced invocations of this checkout."""
    n = args.selfcheck
    sets: dict[str, dict[tuple[str, str], list[float]]] = {"A": {}, "B": {}}
    failed = 0
    base_seed = args.seed
    for i in range(n):
        for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
            args.seed = base_seed + i
            for w in workloads:
                r = run_one(w, args, contract)
                failed += r["failed"]
                row = sets[label]
                for name, m in r["metrics"].items():
                    row.setdefault((w, name), []).append(m["value"])
                row.setdefault((w, "driver.calib_ms_p50"), []).append(r["calib_ms_p50"])
                print(f"selfcheck {label}{i} {w}: " + " ".join(
                    f"{k}={m['value']:.5g}" for k, m in r["metrics"].items()
                ), flush=True)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print(f"\n{'workload/metric':44s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} "
          f"{'B q1':>10s} {'B med':>10s} {'B q3':>10s} {'diff':>7s} {'bound':>6s}")
    bad = 0
    for key in sets["A"]:
        a, b = sets["A"][key], sets["B"][key]
        qa, qb = quantiles(a, n=4), quantiles(b, n=4)
        diff = abs(qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        bound = bounds.get(key[1])
        over = bound is not None and diff > bound
        bad += over
        print(f"{key[0] + '/' + key[1]:44s} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
              f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} {diff:7.1%} "
              f"{'' if bound is None else format(bound, '.2f'):>6s}"
              f"{'  OVER BOUND' if over else ''}")
    print(f"selfcheck: {bad} median pairs over bound, {failed} failed checks")
    return 1 if bad or failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed region per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="print per-layer metrics from a traced run")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: seconds / 8, two blocks, one set-up")
    ap.add_argument("--selfcheck", type=int, metavar="N", default=0,
                    help="two alternating sets of N >= 5 runs; non-zero exit if "
                         "any pair of medians differs by more than its bound")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark runs "
              "the program from source", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.child:
        return child_main(args)
    if args.quick:
        args.seconds /= 8

    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    selected = [args.workload] if args.workload else names
    if args.selfcheck:
        if args.selfcheck < 5:
            ap.error("--selfcheck needs N >= 5")
        return selfcheck(args, contract, selected)
    results = []
    for w in selected:
        results.append(run_one(w, args, contract))
        report(results[-1])
        sys.stdout.flush()
    print(final_line(results, single=args.workload is not None))
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
