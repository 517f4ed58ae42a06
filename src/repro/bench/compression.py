"""Compression bench: measured codec ratios + modeled in-transit step.

Two halves, matching how the other figure drivers split work:

- **Measured** — short single-rank RBC and pb146-analog solves produce
  real velocity/pressure/temperature sequences; each field sequence is
  pushed through the :mod:`repro.codec` pipelines at the gate budget
  (relative 1e-3) and the raw-vs-wire ratio, encode/decode bandwidth
  and worst-case reconstruction error are recorded.  The ratio is a
  property of the *data*, not the machine, so the laptop-scale
  measurement transfers to paper scale directly.
- **Modeled** — the measured ratio is replayed on the paper machine at
  the Section 4.2 shape (1120 ranks: 896 simulation + 224 endpoints at
  the 4:1 in-transit split): per-step seconds for solve, collectives,
  on-device encode, D2H, marshal, and SST stream, compressed vs
  uncompressed.  On-device encode is charged at
  :data:`CODEC_DEVICE_BANDWIDTH` — an SZ/ZFP-class GPU compressor
  sustains tens of GB/s, so compression happens *before* the PCIe hop
  and the wire only ever sees compressed bytes.  Every relative
  conclusion (compressed step <= uncompressed step) is insensitive to
  the exact constant until it drops below PCIe bandwidth.

``python -m repro.bench.compression`` prints the table; the measured
>=4x velocity+pressure floor is asserted in ``tests/test_bench.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.bench.replay import ReplayConfig
from repro.codec import CodecContext, CodecSpec, decode_fields, encode_fields
from repro.machine import (
    JUWELS_BOOSTER,
    ClusterSpec,
    CollectiveModel,
    DragonflyPlusTopology,
    NetworkModel,
    PcieModel,
)
from repro.util.sizes import format_bytes
from repro.util.tables import Table

#: sustained on-device (GPU) compression throughput, bytes/s.  Public
#: cuSZ / nvCOMP / ZFP-CUDA figures for f8 fields on an A100 cluster
#: around 30-90 GB/s; 50 GB/s is a mid-range pick, ~2x the effective
#: PCIe gen4 x16 rate, so encode overlaps favorably with the D2H hop
#: it shrinks.
CODEC_DEVICE_BANDWIDTH = 50e9

#: Section 4.2 paper shape: 1120 total ranks at the 4:1 split.
PAPER_SIM_RANKS = 896
PAPER_ENDPOINT_RATIO = 4

#: streamed bytes per gridpoint per step: velocity (3 x f8) + pressure
#: (f8), the fields ``gate_ratio`` covers.
STREAM_BYTES_PER_GRIDPOINT = 32.0

#: the gate budget: every lossy row runs at relative 1e-3.
GATE_BUDGET = "1e-3"

_CODECS = ("lossless", "delta-rle")

_measure_cache: dict = {}


# -- measured half -------------------------------------------------------

def _field_sequences(case, steps: int) -> dict[str, list[np.ndarray]]:
    """Run `case` single-rank for `steps`; return per-field step series."""
    from repro.nekrs import NekRSSolver
    from repro.parallel import SerialCommunicator

    solver = NekRSSolver(case, SerialCommunicator())
    seqs: dict[str, list[np.ndarray]] = {}
    for _ in range(steps):
        solver.step()
        fields = {
            "velocity_u": solver.u,
            "velocity_v": solver.v,
            "velocity_w": solver.w,
            "pressure": solver.p,
        }
        if solver.T is not None:
            fields["temperature"] = solver.T
        for name, arr in fields.items():
            seqs.setdefault(name, []).append(np.array(arr, dtype=np.float64))
    return seqs


def _measure_case(seqs: dict[str, list[np.ndarray]], codec: str) -> list[dict]:
    """Encode a case's field sequences through one codec; decode-verify.

    Each step's fields go through :func:`repro.codec.encode_fields` /
    :func:`~repro.codec.decode_fields` as one batch — the call the RBP3
    marshaler makes — so the bandwidths are those of the production
    path.  One encode context carries the temporal reference chain
    (delta-rle runs temporal, exactly as the SST writer engine does) and
    one decode context mirrors the reader side, so the measured ratio is
    the steady-state wire ratio of a streaming run, not a single-shot
    number.
    """
    spec = CodecSpec.from_cli(codec, GATE_BUDGET, temporal=True)
    enc_ctx, dec_ctx = CodecContext(), CodecContext()
    max_err = dict.fromkeys(seqs, 0.0)
    bound = dict.fromkeys(seqs, 0.0)
    for step, arrs in enumerate(zip(*seqs.values())):
        fields = [(name, arr, spec.config_for(name, arr.dtype))
                  for name, arr in zip(seqs, arrs)]
        encoded = encode_fields(fields, step, enc_ctx)
        decoded = decode_fields(
            [(name, *block, arr.dtype, arr.shape)
             for (name, arr, _), block in zip(fields, encoded)],
            step, dec_ctx,
        )
        for (name, arr, cfg), out in zip(fields, decoded):
            if cfg is not None and not cfg.budget.lossless:
                bound[name] = max(bound[name], cfg.budget.bound_for(arr) or 0.0)
            if arr.size:
                max_err[name] = max(max_err[name],
                                    float(np.max(np.abs(out - arr))))
    rows = []
    for name in seqs:
        stats = enc_ctx.stats.fields[name]
        dec_seconds = dec_ctx.stats.fields[name]["decode_seconds"]
        wire = stats["wire_bytes"]
        rows.append({
            "field": name,
            "codec": codec,
            "raw_bytes": stats["raw_bytes"],
            "wire_bytes": wire,
            "ratio": stats["raw_bytes"] / wire if wire else 1.0,
            "encode_mb_s": (
                stats["raw_bytes"] / stats["encode_seconds"] / 1e6
                if stats["encode_seconds"] else float("inf")
            ),
            "decode_mb_s": (
                stats["raw_bytes"] / dec_seconds / 1e6
                if dec_seconds else float("inf")
            ),
            "max_abs_err": max_err[name],
            "bound": bound[name],
        })
    return rows


def measure_compression(
    rbc_ranks: int = 8,
    rbc_order: int = 4,
    pebble_count: int = 5,
    pebble_order: int = 3,
    steps: int = 6,
    codecs: tuple[str, ...] = _CODECS,
) -> dict:
    """Measured ratios for both cases, all codecs (module-cached).

    Returns ``{"rows": [...], "aggregate": {(case, codec): ratio},
    "gate_ratio": float}`` where ``gate_ratio`` is the combined
    velocity+pressure wire ratio for ``delta-rle`` across both cases —
    the number the ISSUE's >=4x acceptance pins.
    """
    from repro.bench.workloads import measurement_pebble_case
    from repro.nekrs.cases import weak_scaled_rbc_case

    key = (rbc_ranks, rbc_order, pebble_count, pebble_order, steps, codecs)
    if key in _measure_cache:
        return _measure_cache[key]

    cases = {
        "rbc": weak_scaled_rbc_case(
            rbc_ranks, elements_per_rank=4, order=rbc_order, dt=1e-3
        ),
        f"pb{pebble_count}": measurement_pebble_case(
            num_pebbles=pebble_count, order=pebble_order, num_steps=steps
        ),
    }
    rows: list[dict] = []
    gate_raw = gate_wire = 0
    aggregate: dict[tuple[str, str], float] = {}
    for case_name, case in cases.items():
        seqs = _field_sequences(case, steps)
        for codec in codecs:
            agg_raw = agg_wire = 0
            for row in _measure_case(seqs, codec):
                row["case"] = case_name
                rows.append(row)
                if row["field"].startswith(("velocity", "pressure")):
                    agg_raw += row["raw_bytes"]
                    agg_wire += row["wire_bytes"]
                    if codec == "delta-rle":
                        gate_raw += row["raw_bytes"]
                        gate_wire += row["wire_bytes"]
            aggregate[(case_name, codec)] = (
                agg_raw / agg_wire if agg_wire else 1.0
            )
    result = {
        "rows": rows,
        "aggregate": aggregate,
        "gate_ratio": gate_raw / gate_wire if gate_wire else 1.0,
        "budget": GATE_BUDGET,
    }
    _measure_cache[key] = result
    return result


# -- modeled half --------------------------------------------------------

def predict_compressed_step(
    cluster: ClusterSpec = JUWELS_BOOSTER,
    num_sim_ranks: int = PAPER_SIM_RANKS,
    compression_ratio: float = 1.0,
    ratio: int = PAPER_ENDPOINT_RATIO,
    gridpoints_per_rank: float = 2.0e6,
    bytes_per_gridpoint: float = STREAM_BYTES_PER_GRIDPOINT,
    codec_bandwidth: float = CODEC_DEVICE_BANDWIDTH,
    config: ReplayConfig = ReplayConfig(),
) -> dict:
    """One modeled in-transit timestep with the codec in the path.

    Mirrors :func:`repro.bench.replay.predict_intransit_step`'s cost
    terms; `compression_ratio` shrinks every post-encode byte count
    (D2H, marshal, stream, staged queue) while charging the on-device
    encode for the *raw* bytes at `codec_bandwidth`.
    """
    if compression_ratio < 1.0:
        raise ValueError("compression_ratio must be >= 1 (1 = uncompressed)")
    total_ranks = num_sim_ranks + max(1, num_sim_ranks // ratio)
    nodes = cluster.nodes_for_ranks(total_ranks)
    topo = DragonflyPlusTopology(cluster)
    net = NetworkModel(cluster, topo)
    coll = CollectiveModel(net)
    hops = topo.mean_hops(nodes)
    pcie = PcieModel(cluster.node.gpu)

    raw = int(bytes_per_gridpoint * gridpoints_per_rank)
    wire = int(math.ceil(raw / compression_ratio))
    seconds = {
        "solve": gridpoints_per_rank / config.gpu_dof_throughput,
        "collectives": config.allreduces_per_step
        * coll.allreduce_time(8, num_sim_ranks, hops),
    }
    if compression_ratio > 1.0:
        seconds["encode"] = raw / codec_bandwidth
    seconds["d2h"] = pcie.transfer_time(wire)
    seconds["marshal"] = wire / config.marshal_bandwidth
    seconds["stream"] = net.stream_time(
        wire, cluster.node.ranks_per_node, math.ceil(hops)
    )
    return {
        "cluster": cluster.name,
        "total_ranks": total_ranks,
        "sim_ranks": num_sim_ranks,
        "endpoint_ranks": total_ranks - num_sim_ranks,
        "raw_bytes_per_rank": raw,
        "wire_bytes_per_rank": wire,
        "seconds": seconds,
        "total_seconds": sum(seconds.values()),
    }


# -- table ---------------------------------------------------------------

def run(measure_kwargs: dict | None = None) -> Table:
    t0 = time.perf_counter()
    measured = measure_compression(**(measure_kwargs or {}))
    table = Table(
        ["case", "field", "codec", "raw", "wire", "ratio",
         "enc [MB/s]", "max err / bound"],
        title=(
            "Compression — measured codec ratios at relative "
            f"{GATE_BUDGET} ({time.perf_counter() - t0:.1f}s measure)"
        ),
        float_format="{:.2f}",
    )
    for row in measured["rows"]:
        over = (
            f"{row['max_abs_err']:.2e} / {row['bound']:.2e}"
            if row["bound"] else f"{row['max_abs_err']:.2e} / exact"
        )
        table.add_row([
            row["case"], row["field"], row["codec"],
            format_bytes(row["raw_bytes"]), format_bytes(row["wire_bytes"]),
            f"{row['ratio']:.2f}x", f"{row['encode_mb_s']:.0f}", over,
        ])
    for (case_name, codec), ratio in sorted(measured["aggregate"].items()):
        table.add_row([
            case_name, "velocity+pressure", codec, "", "",
            f"{ratio:.2f}x", "", "(aggregate)",
        ])
    table.add_row([
        "both", "velocity+pressure", "delta-rle", "", "",
        f"{measured['gate_ratio']:.2f}x", "", "(floor 4x)",
    ])

    ratio = max(measured["gate_ratio"], 1.0)
    base = predict_compressed_step(compression_ratio=1.0)
    comp = predict_compressed_step(compression_ratio=ratio)
    for label, pred in (("uncompressed", base), ("compressed", comp)):
        terms = ", ".join(
            f"{k} {v * 1e3:.1f}ms" for k, v in pred["seconds"].items()
        )
        table.add_row([
            pred["cluster"], f"{pred['total_ranks']} ranks", label,
            format_bytes(pred["raw_bytes_per_rank"]),
            format_bytes(pred["wire_bytes_per_rank"]),
            f"{pred['total_seconds'] * 1e3:.1f}ms/step", "", terms,
        ])
    return table


if __name__ == "__main__":
    print(run().render())
