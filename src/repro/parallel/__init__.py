"""In-process SPMD runtime standing in for MPI.

The paper's runs span 280-1120 MPI ranks on Polaris/JUWELS.  Here every
rank is a thread in one process: ``ThreadCommunicator`` provides
MPI-like point-to-point and collective operations with real concurrency
and real synchronization, and ``SerialCommunicator`` covers the
single-rank case.  All traffic flows through a :class:`TrafficMeter`
so the machine model (``repro.machine``) can replay the recorded
communication volume at leadership scale.
"""

from repro.faults.errors import RankStallError
from repro.parallel.comm import (
    Communicator,
    ReduceOp,
    SerialCommunicator,
    TrafficMeter,
)
from repro.parallel.thread_comm import ThreadCommunicator
from repro.parallel.runtime import run_spmd
from repro.parallel.partition import block_partition, block_range, owner_of

__all__ = [
    "Communicator",
    "ReduceOp",
    "SerialCommunicator",
    "ThreadCommunicator",
    "TrafficMeter",
    "RankStallError",
    "run_spmd",
    "block_partition",
    "block_range",
    "owner_of",
]
