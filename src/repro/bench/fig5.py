"""Figure 5: in transit RBC — mean time per timestep, weak scaling.

Paper setup: NekRS-SENSEI on JUWELS Booster streams through ADIOS2 SST
to a SENSEI endpoint (4:1 sim:endpoint nodes); measurement points are
No Transport / Checkpointing / Catalyst.  Expected shape: the three
curves sit close together and stay ~flat as ranks grow (weak scaling
works; in transit overhead is small).

Run as ``python -m repro.bench.fig5``.
"""

from __future__ import annotations

from repro.bench.replay import ENDPOINT_RATIO, predict_intransit_step
from repro.bench.workloads import rbc_profiles
from repro.machine import JUWELS_BOOSTER
from repro.util.tables import Table

RANK_COUNTS = (16, 64, 256, 1024)
MODES = ("none", "checkpoint", "catalyst")


def run(
    measure_kwargs: dict | None = None,
) -> Table:
    profiles = rbc_profiles(**(measure_kwargs or {}))
    table = Table(
        ["ranks", "no transport [ms/step]", "checkpointing [ms/step]",
         "catalyst [ms/step]"],
        title=f"Fig. 5 — RBC in transit mean time per timestep on {JUWELS_BOOSTER.name} "
        f"(weak scaling, {ENDPOINT_RATIO}:1 sim:endpoint)",
    )
    for ranks in RANK_COUNTS:
        row = [ranks]
        for mode in MODES:
            pred = predict_intransit_step(
                profiles[mode]["simulation"], JUWELS_BOOSTER, ranks
            )
            row.append(pred.seconds_per_step * 1e3)
        table.add_row(row)
    return table


if __name__ == "__main__":
    print(run().render())
