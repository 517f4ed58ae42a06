"""Kernel-side view of a device's scratch arena.

``Device.arena`` is the one pool class, :class:`~repro.perf.arena.
WorkspaceArena`, allocating :class:`DeviceMemory` and charging
``occa.arena``: host code borrows opaque device buffers and can reach
their bytes only through a metered copy.  Kernel-internal code (the
ghost-layer exchange, the compositor merge rounds) runs "on the device"
and manipulates raw arrays; :class:`_RawArenaView` is how that code
borrows from the same pool.  Keeping it a separate type is the point —
"kernels see raw arrays, hosts see ``DeviceMemory``" holds because no
host-facing call ever returns what the view returns.
"""

from __future__ import annotations

import numpy as np

from repro.occa.device import DeviceMemory


class _RawArenaView:
    """A device arena seen through the host arena's borrow/release.

    The arrays it hands out are ``_raw()`` views of pooled device
    buffers, so no transfer is ever charged; ``release`` accepts only
    arrays this view handed out.
    """

    def __init__(self, arena) -> None:
        self._arena = arena
        self._by_id: dict[int, DeviceMemory] = {}

    def borrow(self, shape, dtype=np.float64) -> np.ndarray:
        mem = self._arena.borrow(shape, dtype)
        raw = mem._raw()
        self._by_id[id(raw)] = mem
        return raw

    def release(self, *arrays: np.ndarray) -> None:
        self._arena.release(
            *(self._by_id.pop(id(arr)) for arr in arrays)
        )
