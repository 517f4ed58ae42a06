"""Spectral element method (SEM) infrastructure.

This package is the numerical substrate under the NekRS-analog solver:
Gauss-Lobatto-Legendre quadrature and differentiation, tensor-product
operator application on hexahedral elements, structured hex meshes with
global (continuous-Galerkin) node numbering, the direct-stiffness
gather-scatter operation (the role gslib plays in Nek), discrete
operators (mass, stiffness, Helmholtz, gradient, divergence), a
preconditioned conjugate-gradient solver whose inner products reduce
across ranks, and the vertex coarse grid that preconditions the
pressure solve.

Field convention: a scalar field is an ndarray of shape
``(E, Nq, Nq, Nq)`` — E local elements, ``Nq = order + 1`` GLL nodes
per direction, indexed ``[e, k, j, i]`` with i fastest along x.
"""

from repro.sem.quadrature import gll_nodes_weights, lagrange_interpolation_matrix, derivative_matrix
from repro.sem.mesh import BoxMesh, BoundaryTag
from repro.sem.geometry import GeometricFactors
from repro.sem.gather_scatter import GatherScatter
from repro.sem.operators import SEMOperators
from repro.sem.krylov import cg_solve, CGResult
from repro.sem.coarse import CoarseGrid
from repro.sem.tensor import apply_1d_x, apply_1d_y, apply_1d_z, local_grad

__all__ = [
    "gll_nodes_weights",
    "lagrange_interpolation_matrix",
    "derivative_matrix",
    "BoxMesh",
    "BoundaryTag",
    "GeometricFactors",
    "GatherScatter",
    "SEMOperators",
    "cg_solve",
    "CGResult",
    "CoarseGrid",
    "apply_1d_x",
    "apply_1d_y",
    "apply_1d_z",
    "local_grad",
]
