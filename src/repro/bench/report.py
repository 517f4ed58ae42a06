"""One-shot evaluation report: every figure/table in a single document.

``python -m repro.bench.report [--quick] [--output report.md]`` measures
the workloads once, regenerates all five paper artifacts plus the
ablations, and writes a Markdown report with the tables and a phase
breakdown Gantt per configuration — the reproduction's equivalent of
the paper's full Section 4.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench import (
    ablations,
    compression,
    fig2,
    fig3,
    fig5,
    fig6,
    fleet,
    live_telemetry,
    robustness,
    serving,
    storage,
)
from repro.bench.replay import predict_insitu_run
from repro.bench.workloads import PB146_GRIDPOINTS, pb146_profiles
from repro.machine import POLARIS
from repro.machine.timeline import Timeline

QUICK_PB = dict(ranks=2, steps=4, interval=2, num_pebbles=3, order=3,
                image_size=192)
QUICK_RBC = dict(total_ranks=3, steps=4, stream_interval=2, ratio=2,
                 order=3, elements_per_rank=4)
QUICK_CODEC = dict(rbc_ranks=4, rbc_order=3, pebble_count=3, pebble_order=3,
                   steps=4)


def _section(title: str, table) -> str:
    return f"## {title}\n\n```\n{table.render()}\n```\n"


def build_report(quick: bool = True) -> str:
    pb_kwargs = QUICK_PB if quick else {}
    rbc_kwargs = QUICK_RBC if quick else {}
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    parts = [
        "# Reproduction report — NekRS x SENSEI (SC 2023)",
        "",
        f"Generated {started}; measurement scale: {'quick' if quick else 'default'}.",
        "",
    ]
    parts.append(_section("Figure 2 — pb146 time-to-solution",
                          fig2.run(measure_kwargs=pb_kwargs)))
    parts.append(_section("Figure 3 — pb146 aggregate memory",
                          fig3.run(measure_kwargs=pb_kwargs)))
    parts.append(_section("Storage economy", storage.run(measure_kwargs=pb_kwargs)))
    parts.append(_section("Figure 5 — in transit time per step",
                          fig5.run(measure_kwargs=rbc_kwargs)))
    parts.append(_section("Figure 6 — in transit memory per node",
                          fig6.run(measure_kwargs=rbc_kwargs)))

    # phase breakdown of the catalyst configuration at 280 ranks
    profiles = pb146_profiles(**pb_kwargs)
    pred = predict_insitu_run(profiles["catalyst"], POLARIS, 280, PB146_GRIDPOINTS)
    timeline = Timeline.from_breakdown(pred.seconds)
    parts.append("## Where Catalyst-at-280-ranks spends its time\n")
    parts.append("```\n" + timeline.render() + "\n```\n")

    # the same breakdown device-resident: the d2h/staging terms collapse
    dev_pred = predict_insitu_run(
        profiles["catalyst_device"], POLARIS, 280, PB146_GRIDPOINTS
    )
    dev_timeline = Timeline.from_breakdown(dev_pred.seconds)
    parts.append("## Device-resident Catalyst at 280 ranks "
                 "(tile-only PCIe traffic)\n")
    parts.append("```\n" + dev_timeline.render() + "\n```\n")

    parts.append(_section("Ablation — in situ frequency",
                          ablations.insitu_frequency(measure_kwargs=pb_kwargs)))
    parts.append(_section("Ablation — SST queue policy", ablations.sst_queue()))
    parts.append(_section("Ablation — endpoint ratio", ablations.endpoint_ratio()))
    parts.append(_section("Robustness — fault-tolerant in transit",
                          robustness.fault_tolerance()))
    parts.append(_section("Fleet — endpoint-loss recovery SLO",
                          fleet.recovery_slo()))
    parts.append(_section("Fleet — elastic weak scaling",
                          fleet.weak_scaling()))
    parts.append(_section(
        "Compression — codec ratios and modeled 1120-rank step",
        compression.run(measure_kwargs=QUICK_CODEC if quick else None),
    ))
    serve_kwargs = (
        dict(clients=64, frames=20, relays=2, workers=4, probe_clients=8)
        if quick else {}
    )
    serve_kwargs["codec"] = "delta-rle"
    parts.append(_section("Serving — multi-client frame fan-out",
                          serving.mesh_serving_table(**serve_kwargs)))
    parts.append(_section("Observability — live telemetry plane overhead",
                          live_telemetry.overhead_table()))
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="report.md")
    parser.add_argument("--quick", action="store_true", default=True)
    parser.add_argument("--full", dest="quick", action="store_false")
    args = parser.parse_args(argv)
    report = build_report(quick=args.quick)
    Path(args.output).write_text(report)
    print(report)
    print(f"\n[report written to {args.output}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
