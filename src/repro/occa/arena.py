"""Device-side view of a device's scratch arena.

``Device.arena`` is the one pool class, :class:`~repro.perf.arena.
WorkspaceArena`, allocating :class:`DeviceMemory` and charging
``occa.arena``: host code borrows opaque device buffers and can reach
their bytes only through a metered copy.  Code that runs "on the
device" — under ``residency="device"`` the whole render call graph:
ghost-layer exchange, rasterizer framebuffers, compositor merge rounds,
the assembled volume — works on raw arrays; :class:`_RawArenaView` is
how it borrows from the same pool, passed down as the ``arena=``
argument the host path fills with :func:`~repro.perf.arena.get_arena`.
Keeping it a separate type is the point — "device code sees raw
arrays, hosts see ``DeviceMemory``" holds because no host-facing call
ever returns what the view returns.
"""

from __future__ import annotations

import numpy as np

from repro.occa.device import DeviceMemory


class _RawArenaView:
    """A device arena seen through the host arena's borrow/release/adopt.

    The arrays it hands out are ``_raw()`` views of pooled device
    buffers, so no transfer is ever charged; ``release`` and ``adopt``
    accept only arrays this view handed out.
    """

    def __init__(self, arena) -> None:
        self._arena = arena
        self._by_id: dict[int, DeviceMemory] = {}

    def borrow(self, shape, dtype=np.float64) -> np.ndarray:
        mem = self._arena.borrow(shape, dtype)
        raw = mem._raw()
        self._by_id[id(raw)] = mem
        return raw

    def _pooled(self, arrays) -> list[DeviceMemory]:
        return [self._by_id.pop(id(arr)) for arr in arrays]

    def release(self, *arrays: np.ndarray) -> None:
        self._arena.release(*self._pooled(arrays))

    def adopt(self, *arrays: np.ndarray) -> None:
        """End the accounting of buffers that escape with the caller
        (a finished framebuffer), without pooling them."""
        self._arena.adopt(*self._pooled(arrays))
