"""Discrete performance model of leadership-class machines.

The paper's figures are produced on Polaris (ALCF) and JUWELS Booster
(JSC) at 280-1120 MPI ranks.  This package models those machines —
node/GPU/NIC specs, a DragonFly+ interconnect, a Lustre-like parallel
filesystem, and PCIe device links — so that communication/IO volumes
measured from real scaled-down runs can be replayed at paper scale.

The model is deliberately first-order (Hockney latency-bandwidth with
topology-dependent hop latency, bandwidth-shared filesystem): the
figures we reproduce are *overhead comparisons and scaling shapes*,
which are governed by byte volumes and bandwidth ratios, not by
microarchitectural detail.
"""

from repro.machine.specs import (
    GpuSpec,
    NicSpec,
    NodeSpec,
    FilesystemSpec,
    ClusterSpec,
    POLARIS,
    JUWELS_BOOSTER,
)
from repro.machine.topology import DragonflyPlusTopology
from repro.machine.netmodel import NetworkModel, PcieModel, CollectiveModel
from repro.machine.fsmodel import FilesystemModel

__all__ = [
    "GpuSpec",
    "NicSpec",
    "NodeSpec",
    "FilesystemSpec",
    "ClusterSpec",
    "POLARIS",
    "JUWELS_BOOSTER",
    "DragonflyPlusTopology",
    "NetworkModel",
    "PcieModel",
    "CollectiveModel",
    "FilesystemModel",
]
