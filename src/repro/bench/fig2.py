"""Figure 2: pb146 time-to-solution — Catalyst vs Checkpointing vs Original.

Paper setup: 3000 timesteps on Polaris at 280 / 560 / 1120 ranks
(70/140/280 nodes), in situ or checkpoint action every 100 steps.
Expected shape: Original < Checkpointing <= Catalyst, with the in situ
overhead "slight" relative to checkpointing.

Run as ``python -m repro.bench.fig2``.
"""

from __future__ import annotations

from repro.bench.replay import predict_insitu_run
from repro.bench.workloads import (
    PB146_GRIDPOINTS,
    PB146_INTERVAL,
    PB146_STEPS,
    pb146_profiles,
)
from repro.machine import POLARIS
from repro.util.tables import Table

RANK_COUNTS = (280, 560, 1120)
MODES = ("original", "checkpoint", "catalyst", "catalyst_device")


def run(
    measure_kwargs: dict | None = None,
) -> Table:
    """Measure the three modes at laptop scale, replay at paper scale."""
    profiles = pb146_profiles(**(measure_kwargs or {}))
    table = Table(
        ["ranks", "original [s]", "checkpointing [s]", "catalyst [s]",
         "device catalyst [s]", "ckpt overhead [%]", "catalyst overhead [%]",
         "device overhead [%]"],
        title=f"Fig. 2 — pb146 time-to-solution on {POLARIS.name} "
        f"({PB146_STEPS} steps, action every {PB146_INTERVAL})",
    )
    predictions = {}
    for ranks in RANK_COUNTS:
        row = {}
        for mode in MODES:
            pred = predict_insitu_run(
                profiles[mode],
                POLARIS,
                ranks,
                PB146_GRIDPOINTS,
                steps=PB146_STEPS,
                interval=PB146_INTERVAL,
            )
            row[mode] = pred
        predictions[ranks] = row
        base = row["original"].total_seconds
        table.add_row(
            [
                ranks,
                row["original"].total_seconds,
                row["checkpoint"].total_seconds,
                row["catalyst"].total_seconds,
                row["catalyst_device"].total_seconds,
                100.0 * (row["checkpoint"].total_seconds - base) / base,
                100.0 * (row["catalyst"].total_seconds - base) / base,
                100.0 * (row["catalyst_device"].total_seconds - base) / base,
            ]
        )
    table.predictions = predictions  # attached for downstream figures
    return table


if __name__ == "__main__":
    print(run().render())
