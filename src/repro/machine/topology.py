"""DragonFly+ interconnect topology.

JUWELS Booster's network is a DragonFly+ (leaf/spine cells joined
all-to-all by global links); Polaris' Slingshot network is a dragonfly
variant that the same model approximates.  We answer hop counts
between compute nodes in closed form from the construction below; the
network model converts hops into latency.

Topology construction:

- each *cell* (group) contains ``switches_per_group`` leaf switches and
  the same number of spine switches, leaf-spine fully bipartite;
- spines of different cells are connected all-to-all (one global link
  per cell pair per spine — we model hop counts, not link contention at
  the per-link level);
- each leaf switch hosts ``nodes_per_switch`` compute nodes.

Minimal routes are therefore: same switch = 1 switch hop,
same cell = leaf-spine-leaf = 3, different cell = leaf-spine-spine-leaf
= 4 (one global hop).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.specs import ClusterSpec


@dataclass(frozen=True)
class NodeLocation:
    """Where a compute node lives in the topology."""

    cell: int
    switch: int     # leaf switch index within the cell
    port: int       # port on that leaf switch


class DragonflyPlusTopology:
    """Switch-level DragonFly+ topology for a :class:`ClusterSpec`."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        per_cell = spec.nodes_per_switch * spec.switches_per_group
        self.num_cells = -(-spec.num_nodes // per_cell)

    def locate(self, node_id: int) -> NodeLocation:
        """Deterministic placement of compute node `node_id`."""
        if not 0 <= node_id < self.spec.num_nodes:
            raise ValueError(
                f"node {node_id} out of range for {self.spec.name} "
                f"({self.spec.num_nodes} nodes)"
            )
        per_switch = self.spec.nodes_per_switch
        per_cell = per_switch * self.spec.switches_per_group
        cell, rem = divmod(node_id, per_cell)
        switch, port = divmod(rem, per_switch)
        return NodeLocation(cell=cell, switch=switch, port=port)

    def switch_hops(self, node_a: int, node_b: int) -> int:
        """Number of switches traversed between two compute nodes.

        0 for the same node (intra-node traffic never enters the
        fabric), then 1 / 3 / 4 for the same switch / cell / neither.
        """
        if node_a == node_b:
            return 0
        la, lb = self.locate(node_a), self.locate(node_b)
        if la.cell != lb.cell:
            return 4
        return 1 if la.switch == lb.switch else 3

    def max_hops(self) -> int:
        """Worst-case minimal route length (diameter in switch hops)."""
        if self.num_cells > 1:
            return 4
        return 3 if self.spec.switches_per_group > 1 or self.spec.nodes_per_switch < self.spec.num_nodes else 1

    def mean_hops(self, num_nodes: int, samples: int = 256, seed: int = 0) -> float:
        """Average hop count between distinct nodes in a job of
        `num_nodes` nodes placed contiguously from node 0."""
        if num_nodes < 2:
            return 0.0
        import numpy as np

        rng = np.random.default_rng(seed)
        total = 0.0
        n = 0
        for _ in range(samples):
            a, b = rng.integers(0, num_nodes, size=2)
            if a == b:
                continue
            total += self.switch_hops(int(a), int(b))
            n += 1
        return total / max(n, 1)
