"""OCCA-style portable device abstraction.

NekRS reaches GPUs through OCCA (Medina et al.): a ``Device`` owns
``Memory`` buffers, and host code explicitly moves data across the PCIe
bus.  The paper's in situ coupling is shaped by exactly this boundary — "simulation data residing on GPU device memory
must be transferred to the CPU before being relayed to SENSEI".

Two backends are provided:

``serial``
    Buffers alias host NumPy arrays; copies are free.  Used when the
    solver is run host-only.
``cuda-sim``
    Buffers are distinct "device" allocations that host code cannot
    touch directly; every ``copy_to_host``/``copy_from_host`` moves real
    bytes and is charged to the transfer ledger (optionally with
    modeled PCIe time).  This keeps the instrumented code path — and
    its cost accounting — faithful to the GPU production setup.

Short-lived device buffers come from ``Device.arena``: the repo's one
pool class (:class:`repro.perf.WorkspaceArena`) with a
:class:`DeviceMemory` allocator.  Code that runs on the device borrows
raw arrays from the same pool through ``Device.raw_view()`` — that is
all ``residency="device"`` rendering needs from this package: the
render code is the host's, run on those arrays, and only
:meth:`DeviceMemory.copy_to_host` is metered.
"""

from repro.occa.device import Device, DeviceMemory, TransferLedger

__all__ = [
    "Device",
    "DeviceMemory",
    "TransferLedger",
]
