"""Latency-bandwidth (Hockney) cost models for network, PCIe, collectives.

``time = latency(hops) + bytes / bandwidth`` is the standard
first-order model; collectives use the usual tree/butterfly formulas
(Thakur et al., "Optimization of Collective Communication Operations in
MPICH"), which is what MPICH/CrayMPI implement on these machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machine.specs import ClusterSpec, GpuSpec, NicSpec
from repro.machine.topology import DragonflyPlusTopology

_GB = 1e9


@dataclass(frozen=True)
class PcieModel:
    """Host<->device transfer cost for one GPU."""

    gpu: GpuSpec

    def transfer_time(self, nbytes: int) -> float:
        """One-way device<->host copy time in seconds."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.gpu.pcie_latency_s + nbytes / (self.gpu.pcie_bw_gbs * _GB)


class NetworkModel:
    """Point-to-point message cost over the cluster fabric."""

    def __init__(self, spec: ClusterSpec, topology: DragonflyPlusTopology | None = None):
        self.spec = spec
        self.topology = topology or DragonflyPlusTopology(spec)
        self.nic: NicSpec = spec.node.nic
        # Injection bandwidth is shared by the ranks of a node; with one
        # rank per GPU and nics_per_node NICs, each rank sustains:
        self.per_rank_bw_gbs = (
            spec.node.nics_per_node * self.nic.bw_gbs / spec.node.ranks_per_node
        )

    def latency(self, hops: int) -> float:
        """End-to-end zero-byte latency for a route of `hops` switches."""
        if hops == 0:
            return 0.0   # intra-node: handled by shared memory
        return self.nic.latency_s + hops * self.spec.inter_hop_latency_s

    def p2p_time(self, nbytes: int, hops: int) -> float:
        """Time to move `nbytes` between two ranks `hops` switches apart."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if hops == 0:
            # intra-node via host memory; model as memcpy at GPU PCIe rate
            return nbytes / (self.spec.node.gpu.pcie_bw_gbs * _GB)
        return self.latency(hops) + nbytes / (self.per_rank_bw_gbs * _GB)

    def stream_time(self, nbytes: int, num_streams: int, hops: int) -> float:
        """Time for `num_streams` concurrent same-size streams from one
        node (e.g. SST producers on one node feeding an endpoint)."""
        if num_streams < 1:
            raise ValueError("num_streams must be >= 1")
        node_bw = self.spec.node.nics_per_node * self.nic.bw_gbs * _GB
        return self.latency(hops) + nbytes * num_streams / node_bw


class CollectiveModel:
    """Costs of MPI collectives at a given job size.

    `P` is the number of ranks; `hops` the typical route length within
    the job (use ``topology.mean_hops``).  Formulas follow the
    recursive-doubling / Rabenseifner algorithms used for large
    messages in MPICH derivatives.
    """

    def __init__(self, net: NetworkModel):
        self.net = net

    def _alpha(self, hops: float) -> float:
        return self.net.nic.latency_s + hops * self.net.spec.inter_hop_latency_s

    def _beta(self) -> float:
        """Seconds per byte at per-rank injection bandwidth."""
        return 1.0 / (self.net.per_rank_bw_gbs * _GB)

    def allreduce_time(self, nbytes: int, P: int, hops: float = 3.0) -> float:
        """Rabenseifner: 2 log2(P) latency + 2 (P-1)/P bytes bandwidth."""
        if P < 1:
            raise ValueError("P must be >= 1")
        if P == 1 or nbytes < 0:
            return 0.0
        lg = math.ceil(math.log2(P))
        return 2 * lg * self._alpha(hops) + 2 * nbytes * (P - 1) / P * self._beta()
