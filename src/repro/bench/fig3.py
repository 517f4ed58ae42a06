"""Figure 3: pb146 aggregate memory high-water mark.

Paper finding: Catalyst's CPU memory is ~25% above Checkpointing,
"rational, given the need to transition data from GPU to CPU and the
inherent overhead accompanying Catalyst operations."

Run as ``python -m repro.bench.fig3``.
"""

from __future__ import annotations

from repro.bench.fig2 import MODES, RANK_COUNTS
from repro.bench.replay import predict_insitu_run
from repro.bench.workloads import (
    PB146_GRIDPOINTS,
    PB146_INTERVAL,
    PB146_STEPS,
    pb146_profiles,
)
from repro.machine import POLARIS
from repro.util.sizes import GIB
from repro.util.tables import Table


def run(
    measure_kwargs: dict | None = None,
) -> Table:
    profiles = pb146_profiles(**(measure_kwargs or {}))
    table = Table(
        ["ranks", "checkpointing [GiB]", "catalyst [GiB]",
         "device catalyst [GiB]", "catalyst/checkpointing",
         "device/checkpointing"],
        title=f"Fig. 3 — pb146 aggregate memory high-water mark on {POLARIS.name}",
    )
    for ranks in RANK_COUNTS:
        preds = {
            mode: predict_insitu_run(
                profiles[mode],
                POLARIS,
                ranks,
                PB146_GRIDPOINTS,
                steps=PB146_STEPS,
                interval=PB146_INTERVAL,
            )
            for mode in MODES
        }
        ckpt = preds["checkpoint"].memory_aggregate_bytes
        cat = preds["catalyst"].memory_aggregate_bytes
        dev = preds["catalyst_device"].memory_aggregate_bytes
        table.add_row(
            [ranks, ckpt / GIB, cat / GIB, dev / GIB, cat / ckpt, dev / ckpt]
        )
    return table


if __name__ == "__main__":
    print(run().render())
