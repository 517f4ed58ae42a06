"""Hardware specifications for the machines used in the paper.

Numbers are public figures for Polaris (ALCF) and JUWELS Booster (JSC):
peak bandwidths are derated by a sustained-fraction factor, which is
how first-order HPC performance models are usually calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.sizes import GIB


#: zero-byte host<->device copy latency, one way [s]
PCIE_LATENCY_S = 10e-6
#: barrier/fsync cost of committing a collective dump: checkpoint
#: writers synchronize before resuming the solve, and on production
#: Lustre/GPFS that commit is tens of milliseconds regardless of size
FS_SYNC_LATENCY_S = 0.05
#: added network latency per switch hop [s]
INTER_HOP_LATENCY_S = 0.4e-6


@dataclass(frozen=True)
class GpuSpec:
    """One accelerator."""

    name: str
    fp64_tflops: float          # sustained FP64 throughput for SEM kernels
    mem_bytes: int              # device HBM capacity
    mem_bw_gbs: float           # device memory bandwidth (GB/s)
    pcie_bw_gbs: float          # sustained host<->device bandwidth (GB/s)

    def __post_init__(self):
        if self.fp64_tflops <= 0 or self.pcie_bw_gbs <= 0:
            raise ValueError("GPU throughput figures must be positive")


@dataclass(frozen=True)
class NicSpec:
    """One network interface."""

    name: str
    bw_gbs: float               # sustained injection bandwidth (GB/s)
    latency_s: float            # zero-byte one-way latency


@dataclass(frozen=True)
class NodeSpec:
    """One compute node."""

    name: str
    cpu_sockets: int
    cores_per_socket: int
    mem_bytes: int
    gpus_per_node: int
    gpu: GpuSpec
    nics_per_node: int
    nic: NicSpec

    @property
    def ranks_per_node(self) -> int:
        """The paper runs one MPI rank per GPU on both machines."""
        return self.gpus_per_node


@dataclass(frozen=True)
class FilesystemSpec:
    """A parallel filesystem (Lustre-like) shared by all nodes."""

    name: str
    aggregate_write_gbs: float   # sustained aggregate write bandwidth
    per_node_write_gbs: float    # single-node write ceiling
    open_latency_s: float        # metadata cost per file create/open


@dataclass(frozen=True)
class ClusterSpec:
    """A whole machine: nodes + interconnect topology + filesystem."""

    name: str
    num_nodes: int
    node: NodeSpec
    fs: FilesystemSpec
    # DragonFly+ shape: nodes attach to leaf switches grouped into cells.
    nodes_per_switch: int = 16
    switches_per_group: int = 12

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("cluster must have at least one node")

    @property
    def total_ranks(self) -> int:
        return self.num_nodes * self.node.ranks_per_node

    def nodes_for_ranks(self, ranks: int) -> int:
        """Node count hosting `ranks` ranks at one rank per GPU."""
        rpn = self.node.ranks_per_node
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        nodes = -(-ranks // rpn)
        if nodes > self.num_nodes:
            raise ValueError(
                f"{ranks} ranks need {nodes} nodes but {self.name} has "
                f"{self.num_nodes}"
            )
        return nodes


# --------------------------------------------------------------------------
# Machine presets used in the paper's evaluation.
# --------------------------------------------------------------------------

_A100_SXM = GpuSpec(
    name="NVIDIA A100-SXM4-40GB",
    fp64_tflops=4.0,            # sustained SEM kernel throughput, not peak 9.7
    mem_bytes=40 * GIB,
    mem_bw_gbs=1400.0,
    pcie_bw_gbs=20.0,           # PCIe gen4 x16 sustained
)

#: Polaris (ALCF): 560 nodes, 1x AMD EPYC 7543P "Milan", 4x A100,
#: Slingshot interconnect in a dragonfly, HPE Cray EX. 44 PF.
POLARIS = ClusterSpec(
    name="Polaris",
    num_nodes=560,
    node=NodeSpec(
        name="polaris-node",
        cpu_sockets=1,
        cores_per_socket=32,
        mem_bytes=512 * GIB,
        gpus_per_node=4,
        gpu=_A100_SXM,
        nics_per_node=2,
        nic=NicSpec(name="Slingshot-10", bw_gbs=20.0, latency_s=2.0e-6),
    ),
    fs=FilesystemSpec(
        name="grand-lustre",
        aggregate_write_gbs=650.0,
        per_node_write_gbs=5.0,
        open_latency_s=2e-3,
    ),
    nodes_per_switch=16,
    switches_per_group=14,
)

#: JUWELS Booster (JSC): 936 nodes, 2x AMD EPYC 7402 "Rome", 4x A100,
#: 4x HDR-200 InfiniBand in a DragonFly+ topology. 71 PF.
JUWELS_BOOSTER = ClusterSpec(
    name="JUWELS Booster",
    num_nodes=936,
    node=NodeSpec(
        name="juwels-booster-node",
        cpu_sockets=2,
        cores_per_socket=24,
        mem_bytes=512 * GIB,
        gpus_per_node=4,
        gpu=_A100_SXM,
        nics_per_node=4,
        nic=NicSpec(name="HDR-200 InfiniBand", bw_gbs=23.0, latency_s=1.5e-6),
    ),
    fs=FilesystemSpec(
        name="just-gpfs",
        aggregate_write_gbs=400.0,
        per_node_write_gbs=4.0,
        open_latency_s=2e-3,
    ),
    nodes_per_switch=24,
    switches_per_group=10,
)
