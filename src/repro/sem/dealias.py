"""Quadrature over-integration ("dealiasing") of the advection term.

Collocation evaluation of ``(u . grad) f`` multiplies two degree-N
polynomials and *interpolates* the degree-2N product back at the N+1
GLL nodes — the aliasing error that destabilizes marginally resolved
turbulence.  NekRS's standard fix (the 3/2 rule) evaluates the product
on a finer Gauss grid and L2-projects it back onto P_N.

Per direction, with J the (M x Nq) interpolation to M Gauss points and
W their weights, the projection back is

    P = (J^T W J)^{-1} J^T W        (an Nq x M matrix)

and the 3-D operators are tensor products of J and P.  ``J^T W J`` is
the 1-D mass matrix on the fine quadrature — symmetric positive
definite and tiny, so its inverse is precomputed once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.sem.quadrature import (
    gauss_nodes_weights,
    gll_nodes_weights,
    lagrange_interpolation_matrix,
)
from repro.sem.tensor import apply_3d


@lru_cache(maxsize=32)
def _operators(order: int, fine_count: int) -> tuple[np.ndarray, np.ndarray]:
    """(J interp-to-fine, P project-back) for one direction."""
    gll, _ = gll_nodes_weights(order)
    fine, weights = gauss_nodes_weights(fine_count)
    J = lagrange_interpolation_matrix(gll, fine)            # (M, Nq)
    JtW = J.T * weights[None, :]                            # (Nq, M)
    mass = JtW @ J                                          # (Nq, Nq), SPD
    P = np.linalg.solve(mass, JtW)                          # (Nq, M)
    return J, P


def dealias_points(order: int) -> int:
    """The 3/2-rule fine-grid size for polynomial order N."""
    return int(np.ceil(3 * (order + 1) / 2))


def to_fine(field: np.ndarray, order: int, fine_count: int | None = None) -> np.ndarray:
    """Interpolate an (E, Nq, Nq, Nq) field to the fine Gauss grid."""
    m = fine_count or dealias_points(order)
    J, _ = _operators(order, m)
    return apply_3d(J, J, J, field)

def project_back(
    fine_field: np.ndarray, order: int, fine_count: int | None = None
) -> np.ndarray:
    """L2-project an (E, M, M, M) fine-grid field back onto P_N."""
    m = fine_count or dealias_points(order)
    _, P = _operators(order, m)
    return apply_3d(P, P, P, fine_field)
