"""Two-level additive preconditioner: Jacobi plus a vertex coarse grid.

Diagonal scaling leaves the Poisson iteration count growing with the
number of elements across the domain; NekRS's multilevel pressure
preconditioner bottoms out in an order-1 (element vertex) problem for
exactly that reason.  :class:`CoarseGrid` is that bottom level added to
Jacobi,

    z = D^-1 r + P A_c^-1 P^T W r,

where ``P`` interpolates vertex values trilinearly to the (masked) GLL
nodes, ``W = 1/multiplicity`` turns the redundantly stored residual
into one contribution per global dof, and ``A_c = P^T A P`` is the
Galerkin coarse operator.  ``A_c`` has ``nc = (Ex+1)(Ey+1)(Ez+1)`` rows
(fewer with periodic wrap); it is assembled once, inverted densely
through its Cholesky factor and replicated on every rank — O(nc^2)
memory, the same in-process-scale trade ``gather_scatter`` makes with
its dense interface allreduce — so one application costs one
``allreduce_array`` of ``nc`` doubles and no further communication.
NumPy only: importing ``scipy.linalg`` for a triangular solve would add
20-30 MB to the process's resident set.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import ReduceOp
from repro.perf.arena import get_arena
from repro.sem.mesh import BoxMesh
from repro.sem.operators import SEMOperators
from repro.sem.quadrature import gll_nodes_weights, lagrange_interpolation_matrix


class CoarseGrid:
    """``M(r, out)`` for the masked, assembled Laplacian of `ops`.

    `mask` is the solve's Dirichlet mask and `jacobi` its masked inverse
    diagonal.  Pass the instance as ``precond`` to ``cg_solve``.
    """

    def __init__(self, ops: SEMOperators, mask: np.ndarray, jacobi: np.ndarray):
        mesh = ops.mesh
        self.comm = ops.comm
        self.mask = mask
        self.jacobi = jacobi
        self.weight = ops.gs.inv_multiplicity * mask
        # the order-1 mesh on the same elements numbers the vertices,
        # periodic wrap and partition included
        vertices = BoxMesh(
            mesh.shape, mesh.extent, order=1, periodic=mesh.periodic,
            rank=mesh.rank, size=mesh.size, partition=mesh.partition,
        )
        self.ids = vertices.global_ids.ravel()
        self.nc = vertices.num_global_nodes
        # one element's trilinear interpolation, nodes [k, j, i] by
        # vertices [c, b, a]: small enough (Nq^3 x 8) that one GEMM over
        # all elements beats three tensor contractions
        ref, _ = gll_nodes_weights(mesh.order)
        J = lagrange_interpolation_matrix(np.array([-1.0, 1.0]), ref)
        self.P = np.kron(J, np.kron(J, J))
        # cholesky raises unless A_c is SPD, and L^-T L^-1 is symmetric
        # positive definite by construction, so M is too
        l_inv = np.linalg.inv(np.linalg.cholesky(self._galerkin_matrix(ops)))
        self.inverse = l_inv.T @ l_inv

    def _galerkin_matrix(self, ops: SEMOperators) -> np.ndarray:
        """``P^T A P``: element matrices from the eight vertex basis
        functions, scatter-added and summed over ranks."""
        nc, shape = self.nc, self.mask.shape
        E, n = shape[0], len(self.P)
        elem = np.empty((E, 8, 8))
        for b in range(8):
            phi = self.P[:, b].reshape(shape[1:]) * self.mask
            a_phi = ops.stiffness_apply(phi)
            a_phi *= self.mask
            elem[:, :, b] = a_phi.reshape(E, n) @ self.P
        ids = self.ids.reshape(E, 8)
        flat = (ids[:, :, None] * nc + ids[:, None, :]).ravel()
        a_c = np.bincount(flat, weights=elem.ravel(), minlength=nc * nc)
        if self.comm.size > 1:
            a_c = self.comm.allreduce_array(a_c, ReduceOp.SUM)
        diag = a_c[:: nc + 1]
        # a vertex whose whole support is masked (order 1 on a Dirichlet
        # face) has an empty row: pin it
        diag[diag == 0.0] = 1.0
        unmasked = self.comm.allreduce(float(self.mask.all()), ReduceOp.MIN)
        if unmasked:
            # nothing is pinned, so constants span the null space of A
            # and of A_c; alpha w w^T shifts that one eigenvalue to the
            # mean diagonal and leaves the complement alone
            a_c += diag.sum() / nc**2
        return a_c.reshape(nc, nc)

    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        arena = get_arena()
        E, n = len(r), len(self.P)
        with arena.scratch(r.shape, r.dtype) as fine, \
                arena.scratch((E, 8), r.dtype) as corner:
            np.multiply(r, self.weight, out=fine)
            np.matmul(fine.reshape(E, n), self.P, out=corner)
            coarse = np.bincount(self.ids, weights=corner.ravel(), minlength=self.nc)
            if self.comm.size > 1:
                coarse = self.comm.allreduce_array(coarse, ReduceOp.SUM)
            # ids are in range by construction: no bounds pass, no buffer
            np.take(self.inverse @ coarse, self.ids, out=corner.reshape(-1),
                    mode="clip")
            np.matmul(corner, self.P.T, out=fine.reshape(E, n))
            np.multiply(fine, self.mask, out=out)
            np.multiply(r, self.jacobi, out=fine)
            out += fine
        return out
