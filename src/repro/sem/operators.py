"""Discrete SEM operators: mass, stiffness, Helmholtz, gradient, divergence.

All operators act on fields shaped ``(E, Nq, Nq, Nq)`` and are *local*
(unassembled): solvers compose them with gather-scatter and boundary
masks.  The weak Laplacian follows the standard factored form

    A f = D_r^T (G_rr D_r f) + D_s^T (G_ss D_s f) + D_t^T (G_tt D_t f)

with the geometric factors of :class:`repro.sem.geometry.GeometricFactors`
(diagonal metric — axis-aligned elements).

Every operator accepts an optional ``out=`` buffer and draws its
internal temporaries from the per-rank workspace arena, so solver hot
loops run allocation-free; ``repro.perf.naive_mode`` restores the
original allocating expressions (operand order is preserved, so the
two paths agree bitwise wherever no contraction is re-associated).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import Communicator, ReduceOp
from repro.perf import config
from repro.perf.arena import get_arena
from repro.perf.plans import get_plan_cache
from repro.sem.geometry import GeometricFactors
from repro.sem.gather_scatter import GatherScatter
from repro.sem.mesh import BoxMesh
from repro.sem.quadrature import derivative_matrix
from repro.sem.tensor import (
    apply_1d_x,
    apply_1d_y,
    apply_1d_z,
    local_grad,
    local_grad_transpose,
)


def _into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return result
    out[...] = result
    return out


class SEMOperators:
    """Operator bundle for one mesh + communicator."""

    def __init__(self, mesh: BoxMesh, comm: Communicator):
        self.mesh = mesh
        self.comm = comm
        self.geom = GeometricFactors(mesh)
        self.D = derivative_matrix(mesh.order)
        # the forward x-derivative's BLAS operand, made contiguous once
        self.DT = np.ascontiguousarray(self.D.T)
        self.gs = GatherScatter(mesh.global_ids, comm)
        self._volume: float | None = None
        self._ndofs: float | None = None
        self._ones: np.ndarray | None = None
        # persistent reduction buffers keyed by (shape, dtype): the
        # inner products run every CG iteration, where even an arena
        # borrow/release pair is measurable overhead
        self._reduce_tmps: dict[tuple, np.ndarray] = {}

    @property
    def _ones_field(self) -> np.ndarray:
        """Cached constant-1 field (treat as read-only)."""
        if self._ones is None:
            self._ones = np.ones(self.mesh.field_shape())
        return self._ones

    # -- inner products ----------------------------------------------------
    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Global assembled l2 inner product (each global dof once)."""
        if not config.enabled():
            local = float((u * v * self.gs.inv_multiplicity).sum())
        else:
            # same elementwise products and pairwise sum as the naive
            # expression, so the two paths agree bitwise
            tmp = self._reduce_tmp(u.shape, u.dtype)
            np.multiply(u, v, out=tmp)
            tmp *= self.gs.inv_multiplicity
            local = float(tmp.sum())
        return float(self.comm.allreduce(local, ReduceOp.SUM))

    def _reduce_tmp(self, shape, dtype) -> np.ndarray:
        tmp = self._reduce_tmps.get((shape, dtype))
        if tmp is None:
            tmp = self._reduce_tmps[(shape, dtype)] = np.empty(shape, dtype)
        return tmp

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.dot(u, u), 0.0)))

    def integrate(self, u: np.ndarray) -> float:
        """Global integral of u over the domain (mass-weighted sum).

        The mass factors are per-element quadrature weights, so summing
        over all local nodes integrates each element exactly once; no
        multiplicity correction applies (unlike :meth:`dot`).
        """
        if not config.enabled():
            local = float((self.geom.mass * u).sum())
        else:
            tmp = self._reduce_tmp(u.shape, u.dtype)
            np.multiply(self.geom.mass, u, out=tmp)
            local = float(tmp.sum())
        return float(self.comm.allreduce(local, ReduceOp.SUM))

    @property
    def volume(self) -> float:
        if self._volume is None:
            self._volume = self.integrate(self._ones_field)
        return self._volume

    def mean(self, u: np.ndarray) -> float:
        return self.integrate(u) / self.volume

    def project_out_mean(self, u: np.ndarray) -> np.ndarray:
        """Remove the volume (mass-weighted) average.

        Use for *reporting* fields defined up to a constant.  Inside CG
        on the singular all-Neumann system use
        :meth:`project_out_nullspace` instead: the algebraic null
        vector of the assembled operator is the constant DOF vector,
        whose orthogonal complement is defined by the *unweighted*
        assembled dot product, not the L2(Omega) one — projecting with
        the wrong mean leaves an inconsistent residual component that
        compounds and diverges the iteration.
        """
        return u - self.mean(u)

    @property
    def num_global_dofs(self) -> float:
        """Number of assembled (deduplicated) DOFs across all ranks."""
        if self._ndofs is None:
            ones = self._ones_field
            self._ndofs = self.dot(ones, ones)
        return self._ndofs

    def project_out_nullspace(self, u: np.ndarray) -> np.ndarray:
        """Remove the algebraic constant mode (assembled-dot mean)."""
        return u - self.dot(u, self._ones_field) / self.num_global_dofs

    # -- local operators -----------------------------------------------------
    def mass_apply(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """B f (diagonal lumped mass, unassembled)."""
        if not config.enabled():
            return _into(self.geom.mass * f, out)
        if out is None:
            return self.geom.mass * f
        return np.multiply(self.geom.mass, f, out=out)

    def stiffness_apply(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Weak Laplacian A f (unassembled)."""
        if not config.enabled():
            fr, fs, ft = local_grad(self.D, f)
            return _into(
                local_grad_transpose(
                    self.D,
                    self.geom.grr * fr, self.geom.gss * fs, self.geom.gtt * ft,
                ),
                out,
            )
        with get_arena().scratch(f.shape, f.dtype, n=3) as (fr, fs, ft):
            local_grad(self.D, f, out=(fr, fs, ft), DT=self.DT)
            fr *= self.geom.grr
            fs *= self.geom.gss
            ft *= self.geom.gtt
            return local_grad_transpose(self.D, fr, fs, ft, out=out)

    def helmholtz_apply(self, f: np.ndarray, h1: float, h0,
                        out: np.ndarray | None = None) -> np.ndarray:
        """(h1 A + h0 B) f; h0 may be a scalar or a per-node field
        (spatially varying reaction term, e.g. Brinkman penalty)."""
        if not config.enabled():
            res = self.stiffness_apply(f)
            if h1 != 1.0:
                res *= h1
            res += (h0 * self.geom.mass) * f
            return _into(res, out)
        out = self.stiffness_apply(f, out=out)
        if h1 != 1.0:
            out *= h1
        with get_arena().scratch(f.shape, f.dtype) as tmp:
            np.multiply(h0, self.geom.mass, out=tmp)
            tmp *= f
            out += tmp
        return out

    def stiffness_diagonal(self, h1: float = 1.0, h0=0.0) -> np.ndarray:
        """Diagonal of the *assembled* Helmholtz operator (for Jacobi).

        diag(D_r^T G D_r) at node (k,j,i) is sum_m D[m,i]^2 G[e,k,j,m]
        (and permutations), then gather-scattered.
        """
        D2 = self.D * self.D
        if not config.enabled():
            diag = np.einsum("mi,ekjm->ekji", D2, self.geom.grr, optimize=True)
            diag += np.einsum("mj,ekmi->ekji", D2, self.geom.gss, optimize=True)
            diag += np.einsum("mk,emji->ekji", D2, self.geom.gtt, optimize=True)
            diag *= h1
            diag += h0 * self.geom.mass
            return self.gs(diag)
        cache = get_plan_cache()
        shape = self.mesh.field_shape()
        with get_arena().scratch(shape, n=2) as (diag, tmp):
            cache.einsum("mi,ekjm->ekji", D2, self.geom.grr, out=diag)
            cache.einsum("mj,ekmi->ekji", D2, self.geom.gss, out=tmp)
            diag += tmp
            cache.einsum("mk,emji->ekji", D2, self.geom.gtt, out=tmp)
            diag += tmp
            diag *= h1
            np.multiply(h0, self.geom.mass, out=tmp)
            diag += tmp
            return self.gs(diag)  # gs returns a fresh array; diag stays pooled

    # -- differential operators (collocation / strong form) -------------------
    def grad(self, f: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pointwise physical gradient (unassembled; chain rule).

        Pass ``out=(fx, fy, fz)`` to reuse buffers.
        """
        if not config.enabled():
            fr, fs, ft = local_grad(self.D, f)
            res = (self.geom.rx * fr, self.geom.sy * fs, self.geom.tz * ft)
            if out is None:
                return res
            for o, r in zip(out, res):
                o[...] = r
            return tuple(out)
        if out is None:
            out = (np.empty_like(f), np.empty_like(f), np.empty_like(f))
        fx, fy, fz = local_grad(self.D, f, out=out, DT=self.DT)
        fx *= self.geom.rx
        fy *= self.geom.sy
        fz *= self.geom.tz
        return fx, fy, fz

    def div(self, u: np.ndarray, v: np.ndarray, w: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
        """Pointwise divergence du/dx + dv/dy + dw/dz."""
        if not config.enabled():
            res = self.geom.rx * apply_1d_x(self.D, u)
            res += self.geom.sy * apply_1d_y(self.D, v)
            res += self.geom.tz * apply_1d_z(self.D, w)
            return _into(res, out)
        out = apply_1d_x(self.D, u, out=out, AT=self.DT)
        out *= self.geom.rx
        with get_arena().scratch(out.shape, out.dtype) as tmp:
            apply_1d_y(self.D, v, out=tmp)
            tmp *= self.geom.sy
            out += tmp
            apply_1d_z(self.D, w, out=tmp)
            tmp *= self.geom.tz
            out += tmp
        return out

    def convect(self, f: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Convective derivative (u . grad) f, pointwise (collocation)."""
        if not config.enabled():
            fx, fy, fz = self.grad(f)
            return _into(u * fx + v * fy + w * fz, out)
        with get_arena().scratch(f.shape, f.dtype, n=3) as (fx, fy, fz):
            self.grad(f, out=(fx, fy, fz))
            if out is None:
                out = np.multiply(u, fx)
            else:
                np.multiply(u, fx, out=out)
            fy *= v
            out += fy
            fz *= w
            out += fz
        return out

    def convect_dealiased(
        self, f: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """(u . grad) f with quadrature over-integration (3/2 rule).

        Gradients are computed spectrally at the GLL nodes (exact),
        then the velocity-gradient products are evaluated on the finer
        Gauss grid and L2-projected back — removing the aliasing error
        of the collocation product.
        """
        from repro.sem.dealias import dealias_points, project_back, to_fine

        order = self.mesh.order
        m = dealias_points(order)
        fx, fy, fz = self.grad(f)
        out_fine = to_fine(u, order, m) * to_fine(fx, order, m)
        out_fine += to_fine(v, order, m) * to_fine(fy, order, m)
        out_fine += to_fine(w, order, m) * to_fine(fz, order, m)
        return project_back(out_fine, order, m)

    # -- assembly helpers ----------------------------------------------------
    def assemble(self, f: np.ndarray) -> np.ndarray:
        """QQ^T f (direct-stiffness sum)."""
        return self.gs(f)

    def continuize(self, f: np.ndarray) -> np.ndarray:
        """Average redundant copies so the field is single-valued."""
        return self.gs.average(f)
