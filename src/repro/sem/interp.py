"""Spectral resampling of SEM fields onto uniform grids.

Rendering and image-data analyses want regularly sampled data; because
the SEM solution is polynomial inside each element, resampling is exact
spectral interpolation: one small dense matrix per direction maps the
Nq GLL values to `s` uniform samples.  Each element becomes an
``s x s x s`` block of the global uniform grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.sem.mesh import BoxMesh
from repro.sem.quadrature import (
    gll_nodes_weights,
    lagrange_interpolation_matrix,
    uniform_nodes,
)
from repro.sem.tensor import apply_3d


@lru_cache(maxsize=64)
def _resample_matrix(order: int, samples: int) -> np.ndarray:
    nodes, _ = gll_nodes_weights(order)
    targets = uniform_nodes(samples, include_ends=False)
    return lagrange_interpolation_matrix(nodes, targets)


def resample_field(mesh: BoxMesh, field: np.ndarray, samples: int) -> np.ndarray:
    """Interpolate a field to `samples`^3 uniform points per element.

    Returns shape ``(E_local, samples, samples, samples)`` with the
    same [e, k, j, i] axis convention as SEM fields.
    """
    if field.shape != mesh.field_shape():
        raise ValueError(
            f"field shape {field.shape} does not match mesh {mesh.field_shape()}"
        )
    J = _resample_matrix(mesh.order, samples)
    return apply_3d(J, J, J, field)


def grid_dims(mesh: BoxMesh, samples: int) -> tuple[int, int, int]:
    """Global uniform-grid dimensions (nx, ny, nz)."""
    ex, ey, ez = mesh.shape
    return (ex * samples, ey * samples, ez * samples)
