"""Partitioning of elements across ranks.

Two strategies:

- **slab** (block) partitioning of the lexicographic element order —
  Nek's default contiguous distribution, with the MPI-standard
  convention that the first ``n % size`` ranks get one extra item.
- **Morton (Z-order) curve** partitioning — block partitioning of the
  space-filling-curve order, which keeps each rank's elements spatially
  compact and therefore shrinks the gather-scatter interface (the same
  role recursive bisection plays in production Nek).
"""

from __future__ import annotations

import numpy as np


def block_range(n: int, size: int, rank: int) -> tuple[int, int]:
    """Half-open index range [lo, hi) owned by `rank` out of `size`.

    >>> [block_range(10, 3, r) for r in range(3)]
    [(0, 4), (4, 7), (7, 10)]
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} out of range for size {size}")
    if n < 0:
        raise ValueError("n must be non-negative")
    base, extra = divmod(n, size)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Insert two zero bits between each bit of v (for 3-D interleave)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def morton_encode(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Morton (Z-order) code of 3-D lattice coordinates (< 2^21 each)."""
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    iz = np.asarray(iz, dtype=np.int64)
    if (ix < 0).any() or (iy < 0).any() or (iz < 0).any():
        raise ValueError("lattice coordinates must be non-negative")
    if max(ix.max(initial=0), iy.max(initial=0), iz.max(initial=0)) >= 2**21:
        raise ValueError("coordinates exceed the 21-bit Morton range")
    return (
        _spread_bits(ix)
        | (_spread_bits(iy) << np.uint64(1))
        | (_spread_bits(iz) << np.uint64(2))
    ).astype(np.uint64)


def morton_order(shape: tuple[int, int, int]) -> np.ndarray:
    """Lexicographic element indices of an Ex x Ey x Ez lattice, sorted
    along the Morton curve (x fastest in the lexicographic order)."""
    ex, ey, ez = shape
    e = np.arange(ex * ey * ez, dtype=np.int64)
    ix = e % ex
    iy = (e // ex) % ey
    iz = e // (ex * ey)
    codes = morton_encode(ix, iy, iz)
    return e[np.argsort(codes, kind="stable")]


def morton_partition(shape: tuple[int, int, int], size: int) -> list[np.ndarray]:
    """Per-rank element-id sets: contiguous chunks of the Morton curve.

    Each rank's ids are returned ascending (the order element-local
    arrays are stored in), but ownership follows the curve, so ranks
    get spatially compact bricks instead of thin slabs.
    """
    order = morton_order(shape)
    n = len(order)
    return [
        np.sort(order[slice(*block_range(n, size, r))]) for r in range(size)
    ]
