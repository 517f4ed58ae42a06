"""Device and memory objects (see package docstring)."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.machine.netmodel import PcieModel

_VALID_MODES = ("serial", "cuda-sim")


@dataclass
class TransferLedger:
    """Counts host<->device traffic for one device."""

    h2d_bytes: int = field(default=0, init=False)
    d2h_bytes: int = field(default=0, init=False)
    h2d_count: int = field(default=0, init=False)
    d2h_count: int = field(default=0, init=False)
    modeled_seconds: float = field(default=0.0, init=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, init=False
    )

    def record(self, direction: str, nbytes: int, seconds: float = 0.0) -> None:
        with self._lock:
            if direction == "h2d":
                self.h2d_bytes += nbytes
                self.h2d_count += 1
            elif direction == "d2h":
                self.d2h_bytes += nbytes
                self.d2h_count += 1
            else:
                raise ValueError(f"unknown transfer direction {direction!r}")
            self.modeled_seconds += seconds

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes


class DeviceMemory:
    """A buffer living on a :class:`Device`.

    In ``cuda-sim`` mode the underlying array is private: host code must
    go through :meth:`copy_to_host` / :meth:`copy_from_host`, which
    debit the device's transfer ledger.  Kernels launched on the same
    device may touch the raw array directly (they run "on the device").
    """

    def __init__(self, device: "Device", array: np.ndarray):
        self._device = device
        self._array = array

    @property
    def device(self) -> "Device":
        return self._device

    @property
    def shape(self) -> tuple:
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    @property
    def nbytes(self) -> int:
        return self._array.nbytes

    def copy_to_host(self, out: np.ndarray | None = None) -> np.ndarray:
        """D2H copy; returns a host array (never an alias in cuda-sim)."""
        self._device._charge("d2h", self._array.nbytes)
        if out is not None:
            if out.shape != self._array.shape or out.dtype != self._array.dtype:
                raise ValueError("output buffer shape/dtype mismatch")
            np.copyto(out, self._array)
            return out
        if self._device.mode == "serial":
            return self._array
        return self._array.copy()

    def copy_from_host(self, src: np.ndarray) -> None:
        """H2D copy from a host array of identical shape/dtype."""
        src = np.asarray(src)
        if src.shape != self._array.shape or src.dtype != self._array.dtype:
            raise ValueError(
                f"cannot copy {src.shape}/{src.dtype} into device buffer "
                f"{self._array.shape}/{self._array.dtype}"
            )
        self._device._charge("h2d", src.nbytes)
        np.copyto(self._array, src)

    def _raw(self) -> np.ndarray:
        """Device-side view; only kernels and the device may call this."""
        return self._array

    def fill(self, value: float) -> None:
        """Device-side fill (runs 'on device', no transfer charged)."""
        self._array.fill(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DeviceMemory {self.shape} {self.dtype} on "
            f"{self._device.mode}>"
        )


class Device:
    """An OCCA-like device handle: allocations, the transfer ledger and
    the scratch pool of device-side code."""

    def __init__(self, mode: str = "serial", pcie: PcieModel | None = None):
        if mode not in _VALID_MODES:
            raise ValueError(f"unknown device mode {mode!r}; expected {_VALID_MODES}")
        self.mode = mode
        self.pcie = pcie
        self.transfers = TransferLedger()
        if mode != "serial":
            # the ledger is the record; the active telemetry reads it
            from repro.observe.session import get_telemetry

            metrics = get_telemetry().metrics
            metrics.counter(
                "repro_pcie_h2d_bytes_total",
                "bytes moved host->device over the modeled PCIe link",
                read=lambda: self.transfers.h2d_bytes,
            )
            metrics.counter(
                "repro_pcie_d2h_bytes_total",
                "bytes moved device->host over the modeled PCIe link",
                read=lambda: self.transfers.d2h_bytes,
            )

    # -- memory ---------------------------------------------------------
    def _charge(self, direction: str, nbytes: int) -> None:
        if self.mode == "serial":
            return
        seconds = self.pcie.transfer_time(nbytes) if self.pcie else 0.0
        self.transfers.record(direction, nbytes, seconds)

    @property
    def arena(self):
        """Lazy per-device scratch pool: the host arena's class
        (:class:`~repro.perf.arena.WorkspaceArena`) allocating
        :class:`DeviceMemory` and charging ``occa.arena``."""
        arena = getattr(self, "_arena", None)
        if arena is None:
            from repro.perf.arena import WorkspaceArena

            arena = self._arena = WorkspaceArena(
                lambda shape, dtype: DeviceMemory(self, np.empty(shape, dtype)),
                "occa.arena",
            )
        return arena

    def raw_view(self):
        """:attr:`arena` for code that runs on the device: the same
        borrow/release, handing out the pooled buffers' raw arrays."""
        from repro.occa.arena import _RawArenaView

        return _RawArenaView(self.arena)
