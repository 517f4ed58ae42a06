"""Dataset objects: unstructured grids, image data, multiblock trees."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.vtkdata.arrays import CELL, POINT, DataArray

#: VTK cell type id for linear hexahedra
VTK_HEXAHEDRON = 12


class UnstructuredGrid:
    """Points + hexahedral cells + point/cell data.

    `points` is ``(P, 3)``; `cells` is ``(C, 8)`` point indices in VTK
    hexahedron corner order (bottom quad CCW, then top quad CCW).
    """

    def __init__(self, points: np.ndarray, cells: np.ndarray):
        points = np.asarray(points, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (P, 3), got {points.shape}")
        if cells.ndim != 2 or cells.shape[1] != 8:
            raise ValueError(f"cells must be (C, 8) hexahedra, got {cells.shape}")
        if cells.size and (cells.min() < 0 or cells.max() >= len(points)):
            raise ValueError("cell connectivity references nonexistent points")
        self.points = points
        self.cells = cells
        self.point_data: dict[str, DataArray] = {}
        self.cell_data: dict[str, DataArray] = {}

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def add_array(self, array: DataArray) -> None:
        target = self.point_data if array.association == POINT else self.cell_data
        expected = self.num_points if array.association == POINT else self.num_cells
        if array.num_tuples != expected:
            raise ValueError(
                f"array {array.name!r} has {array.num_tuples} tuples, "
                f"expected {expected} ({array.association}s)"
            )
        target[array.name] = array

    def bounds(self) -> np.ndarray:
        """((xmin, xmax), (ymin, ymax), (zmin, zmax))."""
        if self.num_points == 0:
            return np.zeros((3, 2))
        return np.stack([self.points.min(axis=0), self.points.max(axis=0)], axis=1)

    @property
    def nbytes(self) -> int:
        total = self.points.nbytes + self.cells.nbytes
        total += sum(a.nbytes for a in self.point_data.values())
        total += sum(a.nbytes for a in self.cell_data.values())
        return total


class ImageData:
    """A uniform grid: origin + spacing + dims, with point data.

    `dims` counts points per axis (VTK convention); point data arrays
    are flat, x varying fastest.
    """

    def __init__(
        self,
        dims: tuple[int, int, int],
        origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
        spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ):
        if min(dims) < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if min(spacing) <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        self.dims = tuple(int(d) for d in dims)
        self.origin = tuple(float(o) for o in origin)
        self.spacing = tuple(float(s) for s in spacing)
        self.point_data: dict[str, DataArray] = {}

    @property
    def num_points(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def num_cells(self) -> int:
        nx, ny, nz = self.dims
        return max(nx - 1, 1) * max(ny - 1, 1) * max(nz - 1, 1)

    def add_array(self, array: DataArray) -> None:
        if array.association != POINT:
            raise ValueError("ImageData here carries point data only")
        if array.num_tuples != self.num_points:
            raise ValueError(
                f"array {array.name!r} has {array.num_tuples} tuples, "
                f"expected {self.num_points}"
            )
        self.point_data[array.name] = array

    def as_volume(self, name: str) -> np.ndarray:
        """Return a point array reshaped (nz, ny, nx)."""
        arr = self.point_data[name]
        nx, ny, nz = self.dims
        return arr.values.reshape(nz, ny, nx)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.point_data.values())


@dataclass
class MultiBlockDataSet:
    """A flat list of blocks, one per producing rank (SENSEI's layout).

    Blocks owned by other ranks are ``None`` locally.
    """

    blocks: list = field(default_factory=list, init=False)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def set_block(self, index: int, block) -> None:
        while len(self.blocks) <= index:
            self.blocks.append(None)
        self.blocks[index] = block

    def get_block(self, index: int):
        return self.blocks[index]

    def local_blocks(self) -> list:
        return [b for b in self.blocks if b is not None]

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.local_blocks())
