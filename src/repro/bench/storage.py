"""Storage economy: 6.5 MB of Catalyst images vs 19 GB of checkpoints.

The paper's in-text result for the pb146 runs: "the storage demand for
Catalyst was a mere 6.5 MB, in stark contrast to the whopping 19 GB
necessitated by Checkpointing ... nearly three orders of magnitude
less."  Checkpoint volume is exact arithmetic (dumps x fields x
gridpoints x 8 B); image volume extrapolates the *measured* PNG bytes
per rendered image of the real pipeline.

Run as ``python -m repro.bench.storage``.
"""

from __future__ import annotations

import math

from repro.bench.replay import predict_insitu_run
from repro.bench.workloads import (
    PB146_GRIDPOINTS,
    PB146_INTERVAL,
    PB146_STEPS,
    pb146_profiles,
)
from repro.machine import POLARIS
from repro.util.sizes import format_bytes
from repro.util.tables import Table


#: the pb146 scale the storage comparison predicts
RANKS = 280


def run(
    measure_kwargs: dict | None = None,
) -> Table:
    profiles = pb146_profiles(**(measure_kwargs or {}))
    preds = {
        mode: predict_insitu_run(
            profiles[mode], POLARIS, RANKS, PB146_GRIDPOINTS,
            steps=PB146_STEPS, interval=PB146_INTERVAL,
        )
        for mode in ("checkpoint", "catalyst")
    }
    ckpt = preds["checkpoint"].storage_bytes
    cat = preds["catalyst"].storage_bytes
    table = Table(
        ["configuration", "storage", "bytes", "orders of magnitude vs ckpt"],
        title="Storage economy — pb146, full 3000-step run",
        float_format="{:.2f}",
    )
    table.add_row(["Checkpointing", format_bytes(ckpt), ckpt, 0.0])
    table.add_row(
        ["Catalyst", format_bytes(cat), cat, math.log10(ckpt / cat) if cat else float("inf")]
    )
    return table


if __name__ == "__main__":
    print(run().render())
