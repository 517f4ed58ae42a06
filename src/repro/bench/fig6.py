"""Figure 6: in transit RBC — main-memory footprint per simulation node.

Paper findings: per-node memory is ~flat under weak scaling; Catalyst
and No Transport are very similar; Checkpointing's overhead is visible
but not large; and simulation memory is independent of the number of
visualization nodes (the in-transit headline).

Run as ``python -m repro.bench.fig6``.
"""

from __future__ import annotations

from repro.bench.fig5 import MODES, RANK_COUNTS
from repro.bench.replay import predict_intransit_step
from repro.bench.workloads import rbc_profiles
from repro.machine import JUWELS_BOOSTER
from repro.util.sizes import GIB
from repro.util.tables import Table


def run(
    measure_kwargs: dict | None = None,
) -> Table:
    profiles = rbc_profiles(**(measure_kwargs or {}))
    rpn = JUWELS_BOOSTER.node.ranks_per_node
    table = Table(
        ["ranks", "no transport [GiB/node]", "checkpointing [GiB/node]",
         "catalyst [GiB/node]"],
        title=f"Fig. 6 — RBC in transit memory per simulation node on "
        f"{JUWELS_BOOSTER.name} ({rpn} ranks/node)",
        float_format="{:.4f}",
    )
    for ranks in RANK_COUNTS:
        row = [ranks]
        for mode in MODES:
            pred = predict_intransit_step(
                profiles[mode]["simulation"], JUWELS_BOOSTER, ranks
            )
            row.append(pred.memory_per_node_bytes(rpn) / GIB)
        table.add_row(row)
    return table


if __name__ == "__main__":
    print(run().render())
