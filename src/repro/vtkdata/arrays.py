"""Named, typed data arrays (the vtkDataArray analog)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: association of an array with mesh entities
POINT = "point"
CELL = "cell"


@dataclass
class DataArray:
    """A named array of per-point or per-cell tuples.

    `values` is ``(N,)`` for scalars or ``(N, C)`` for C-component
    tuples (e.g. velocity is ``(N, 3)``).
    """

    name: str
    values: np.ndarray
    association: str = POINT

    def __post_init__(self):
        if self.association not in (POINT, CELL):
            raise ValueError(f"association must be point|cell, got {self.association}")
        self.values = np.asarray(self.values)
        if self.values.ndim not in (1, 2):
            raise ValueError(
                f"array {self.name!r} must be 1-D or 2-D, got {self.values.ndim}-D"
            )

    @property
    def num_tuples(self) -> int:
        return self.values.shape[0]

    @property
    def nbytes(self) -> int:
        return self.values.nbytes
