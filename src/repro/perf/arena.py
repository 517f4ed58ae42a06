"""Workspace arena: the one pool of scratch buffers for the hot paths.

The solver step, the CG loop, and the Catalyst gather/render path all
need short-lived float buffers of a handful of recurring shapes.
Allocating them fresh every step/iteration costs ``np.empty`` + page
faults and churns the allocator; a :class:`WorkspaceArena` keeps
returned buffers in shape/dtype buckets so steady-state borrows are
pop/append on a list.

The class pools whatever its allocator returns — anything with
``shape``, ``dtype`` and ``nbytes``.  The per-rank host arena
(:func:`get_arena`) allocates with ``np.empty``; ``Device.arena`` is
the same class allocating :class:`~repro.occa.device.DeviceMemory`,
because ``cudaMalloc``/``cudaFree`` in a loop is the GPU's version of
the same churn.  No PCIe traffic is involved in either: borrowing
recycles allocations where they live.

Lifetime rules (see ``docs/performance.md``):

- ``borrow`` hands out an *uninitialized* array — callers must write
  before reading, exactly as with ``np.empty``;
- every borrow must be paired with a ``release`` on the same rank,
  normally via ``try/finally`` or the ``scratch`` context manager;
- borrowed arrays must never escape the borrowing scope (never store
  one in ``self``, return it, or hand it to another rank).

One host arena lives per thread (= per SPMD rank) and one device arena
per :class:`~repro.occa.device.Device`, so there is no lock and buffers
never travel between ranks or devices.  In-use bytes are charged to the
rank's :class:`MemoryMeter` under the arena's category (``perf.arena``
on the host, ``occa.arena`` on a device), and the host arena's
hit/miss/peak statistics are read live by the ``repro_perf_*`` gauges
each :class:`~repro.nekrs.NekRSSolver` registers on its rank's
telemetry.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.observe import get_telemetry
from repro.perf import config

__all__ = ["WorkspaceArena", "get_arena"]


class _Scratch:
    """Lightweight ``with``-guard for :meth:`WorkspaceArena.scratch`.

    A dedicated class (not ``@contextmanager``) because the generator
    protocol costs more than the borrow itself at small field sizes.
    """

    __slots__ = ("_arena", "_arrays", "_single")

    def __init__(self, arena, arrays, single):
        self._arena = arena
        self._arrays = arrays
        self._single = single

    def __enter__(self):
        return self._arrays[0] if self._single else self._arrays

    def __exit__(self, exc_type, exc, tb):
        self._arena.release(*self._arrays)
        return False


class WorkspaceArena:
    """Shape/dtype-bucketed pool of scratch buffers for one rank or device.

    `allocate(shape, dtype)` makes a buffer on a pool miss; `category`
    is where the memory meter books the bytes in use.
    """

    def __init__(self, allocate=np.empty, category: str = "perf.arena") -> None:
        self._allocate = allocate
        self._category = category
        self._pool: dict[tuple, list] = {}
        self.hits = 0
        self.misses = 0
        self.outstanding = 0
        self.borrowed_bytes = 0
        self.peak_borrowed_bytes = 0

    def borrow(self, shape, dtype=np.float64):
        """An uninitialized C-contiguous buffer of `shape`/`dtype`.

        Pooled when the perf layer is enabled; a fresh allocation
        (so ``release`` is a no-op) under :func:`repro.perf.naive_mode`.
        """
        dtype = np.dtype(dtype)
        if not config.enabled():
            return self._allocate(shape, dtype)
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        bucket = self._pool.get((shape, dtype.char))
        if bucket:
            arr = bucket.pop()
            self.hits += 1
        else:
            arr = self._allocate(shape, dtype)
            self.misses += 1
        self.outstanding += 1
        self.borrowed_bytes += arr.nbytes
        if self.borrowed_bytes > self.peak_borrowed_bytes:
            self.peak_borrowed_bytes = self.borrowed_bytes
        get_telemetry().memory.allocate(self._category, arr.nbytes)
        return arr

    def release(self, *arrays) -> None:
        """Return borrowed buffers to their buckets (contents discarded)."""
        if not config.enabled():
            return
        mem = get_telemetry().memory
        for arr in arrays:
            self._pool.setdefault((arr.shape, arr.dtype.char), []).append(arr)
            self.outstanding -= 1
            self.borrowed_bytes -= arr.nbytes
            mem.free(self._category, arr.nbytes)

    def adopt(self, *arrays) -> None:
        """Release borrowed buffers *without* pooling them.

        For the rare buffer that legitimately escapes its borrowing
        scope (e.g. a finished framebuffer handed to the PNG writer):
        accounting ends here, but the memory stays with the caller, so
        the pool can never hand out an aliased array.
        """
        if not config.enabled():
            return
        mem = get_telemetry().memory
        for arr in arrays:
            self.outstanding -= 1
            self.borrowed_bytes -= arr.nbytes
            mem.free(self._category, arr.nbytes)

    def scratch(self, shape, dtype=np.float64, n: int = 1) -> _Scratch:
        """Borrow `n` arrays for a with-block; released on exit.

        Yields the array itself for ``n == 1``, a list otherwise.
        """
        return _Scratch(
            self, [self.borrow(shape, dtype) for _ in range(n)], n == 1
        )

    # -- introspection -------------------------------------------------
    def pooled_arrays(self) -> int:
        return sum(len(bucket) for bucket in self._pool.values())

    def pooled_bytes(self) -> int:
        return sum(
            arr.nbytes for bucket in self._pool.values() for arr in bucket
        )

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "outstanding": self.outstanding,
            "borrowed_bytes": self.borrowed_bytes,
            "peak_borrowed_bytes": self.peak_borrowed_bytes,
            "pooled_arrays": self.pooled_arrays(),
            "pooled_bytes": self.pooled_bytes(),
        }

    def clear(self) -> None:
        self._pool.clear()
        self.hits = self.misses = 0
        self.outstanding = 0
        self.borrowed_bytes = self.peak_borrowed_bytes = 0


class _ArenaLocal(threading.local):
    arena = None


_tls = _ArenaLocal()


def get_arena() -> WorkspaceArena:
    """The calling thread's (= rank's) workspace arena."""
    arena = _tls.arena
    if arena is None:
        arena = _tls.arena = WorkspaceArena()
    return arena
