"""Structured hexahedral spectral-element meshes.

``BoxMesh`` tiles a rectangular box with ``Ex x Ey x Ez`` axis-aligned
hexahedral elements of polynomial order N and distributes contiguous
slabs of elements across the ranks of a communicator.  It provides:

- GLL node physical coordinates per local element,
- a *global continuous numbering* of GLL nodes (the input to
  gather-scatter; coincident nodes on element interfaces share an id,
  with optional periodic wrap per direction),
- boundary-face node masks tagged XMIN..ZMAX for boundary conditions.

Element order is lexicographic with x fastest; the rank partition is a
block partition of that linear order, matching how Nek distributes
elements in slabs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.parallel.partition import block_range
from repro.sem.quadrature import gll_nodes_weights


class BoundaryTag(enum.Enum):
    """Domain boundary faces of the box."""

    XMIN = "xmin"
    XMAX = "xmax"
    YMIN = "ymin"
    YMAX = "ymax"
    ZMIN = "zmin"
    ZMAX = "zmax"


@dataclass(frozen=True)
class BoxExtent:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        for a, b in zip(self.lo, self.hi):
            if not b > a:
                raise ValueError(f"degenerate box extent: {self.lo} .. {self.hi}")

    @property
    def lengths(self) -> tuple[float, float, float]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))


class BoxMesh:
    """A distributed box mesh of spectral elements (see module doc)."""

    def __init__(
        self,
        shape: tuple[int, int, int],
        extent: BoxExtent | tuple = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        order: int = 5,
        periodic: tuple[bool, bool, bool] = (False, False, False),
        rank: int = 0,
        size: int = 1,
        partition: str = "slab",
    ):
        if not isinstance(extent, BoxExtent):
            extent = BoxExtent(tuple(extent[0]), tuple(extent[1]))
        ex, ey, ez = shape
        if min(ex, ey, ez) < 1:
            raise ValueError(f"element shape must be positive, got {shape}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        for d in range(3):
            if periodic[d] and shape[d] < 2:
                raise ValueError(
                    "periodic directions need >= 2 elements so an element "
                    "does not neighbor itself"
                )
        self.shape = (ex, ey, ez)
        self.extent = extent
        self.order = order
        self.nq = order + 1
        self.periodic = tuple(periodic)
        self.rank = rank
        self.size = size
        self.num_global_elements = ex * ey * ez

        if partition == "slab":
            lo, hi = block_range(self.num_global_elements, size, rank)
            self.elem_ids = np.arange(lo, hi, dtype=np.int64)
        elif partition == "morton":
            from repro.parallel.partition import morton_partition

            self.elem_ids = morton_partition(self.shape, size)[rank]
        else:
            raise ValueError(
                f"unknown partition {partition!r}; expected slab|morton"
            )
        self.partition = partition
        self.num_elements = len(self.elem_ids)

        # Element lattice coordinates (x fastest).
        eix = self.elem_ids % ex
        eiy = (self.elem_ids // ex) % ey
        eiz = self.elem_ids // (ex * ey)
        self.elem_lattice = np.stack([eix, eiy, eiz], axis=1)

        lengths = extent.lengths
        self.elem_sizes = np.array(
            [lengths[0] / ex, lengths[1] / ey, lengths[2] / ez]
        )
        self.elem_origins = (
            np.asarray(extent.lo)[None, :] + self.elem_lattice * self.elem_sizes[None, :]
        )

        # GLL coordinates of local nodes, fields shaped (E, Nq, Nq, Nq).
        ref, self.weights_1d = gll_nodes_weights(order)
        half = self.elem_sizes / 2.0
        # per-direction node offsets within an element
        offx = half[0] * (ref + 1.0)
        offy = half[1] * (ref + 1.0)
        offz = half[2] * (ref + 1.0)
        E, nq = self.num_elements, self.nq
        self.x = np.broadcast_to(
            self.elem_origins[:, 0, None, None, None] + offx[None, None, None, :],
            (E, nq, nq, nq),
        ).copy()
        self.y = np.broadcast_to(
            self.elem_origins[:, 1, None, None, None] + offy[None, None, :, None],
            (E, nq, nq, nq),
        ).copy()
        self.z = np.broadcast_to(
            self.elem_origins[:, 2, None, None, None] + offz[None, :, None, None],
            (E, nq, nq, nq),
        ).copy()

        self.global_ids = self._build_global_ids()
        self._boundary_cache: dict[BoundaryTag, np.ndarray] = {}

    # -- numbering -------------------------------------------------------
    def _lattice_extent(self) -> tuple[int, int, int]:
        """Global GLL lattice size per direction (periodic dirs wrap)."""
        n = self.order
        return tuple(
            self.shape[d] * n + (0 if self.periodic[d] else 1) for d in range(3)
        )

    def _build_global_ids(self) -> np.ndarray:
        n = self.order
        nq = self.nq
        nx, ny, nz = self._lattice_extent()
        i = np.arange(nq)
        gx = (self.elem_lattice[:, 0, None] * n + i[None, :]) % nx   # (E, nq)
        gy = (self.elem_lattice[:, 1, None] * n + i[None, :]) % ny
        gz = (self.elem_lattice[:, 2, None] * n + i[None, :]) % nz
        ids = (
            gz[:, :, None, None].astype(np.int64) * (ny * nx)
            + gy[:, None, :, None] * nx
            + gx[:, None, None, :]
        )
        return ids

    @property
    def num_global_nodes(self) -> int:
        nx, ny, nz = self._lattice_extent()
        return nx * ny * nz

    # -- fields ------------------------------------------------------------
    def field_shape(self) -> tuple[int, int, int, int]:
        return (self.num_elements, self.nq, self.nq, self.nq)

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.x, self.y, self.z

    # -- boundaries ----------------------------------------------------------
    _TAG_INFO = {
        BoundaryTag.XMIN: (0, 0),
        BoundaryTag.XMAX: (0, 1),
        BoundaryTag.YMIN: (1, 0),
        BoundaryTag.YMAX: (1, 1),
        BoundaryTag.ZMIN: (2, 0),
        BoundaryTag.ZMAX: (2, 1),
    }

    def boundary_nodes(self, tag: BoundaryTag) -> np.ndarray:
        """Boolean field marking local GLL nodes on a domain boundary.

        Periodic directions have no boundary: returns all-False.
        """
        cached = self._boundary_cache.get(tag)
        if cached is not None:
            return cached
        axis, side = self._TAG_INFO[tag]
        mask = np.zeros(self.field_shape(), dtype=bool)
        if not self.periodic[axis]:
            extreme = self.shape[axis] - 1 if side else 0
            on_elems = self.elem_lattice[:, axis] == extreme
            node_idx = self.order if side else 0
            # axis 0 = x -> last field axis; axis 2 = z -> first field axis
            field_axis = 3 - axis
            indexer: list = [on_elems, slice(None), slice(None), slice(None)]
            indexer[field_axis] = node_idx
            mask[tuple(indexer)] = True
        self._boundary_cache[tag] = mask
        return mask

    def boundary_union(self, tags) -> np.ndarray:
        """Union of boundary node masks over several tags."""
        out = np.zeros(self.field_shape(), dtype=bool)
        for tag in tags:
            out |= self.boundary_nodes(tag)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BoxMesh {self.shape} order={self.order} "
            f"rank={self.rank}/{self.size} E_local={self.num_elements}>"
        )
