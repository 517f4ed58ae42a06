"""Discrete SEM operators: mass, stiffness, Helmholtz, gradient, divergence.

All operators act on fields shaped ``(E, Nq, Nq, Nq)`` and are *local*
(unassembled): solvers compose them with gather-scatter and boundary
masks.  Every :class:`BoxMesh` element is the same axis-aligned box, so
the weak Laplacian D_r^T G_rr D_r + D_s^T G_ss D_s + D_t^T G_tt D_t has
an exact factorization that is built once per operator bundle:

    A f[k,j,i] = w_k (Kxy f_k)[j,i] + c_t w_j w_i (S f)[k,j,i]  (S along z)

with the symmetric 1-D stiffness S = D^T diag(w) D, the x-y plane
operator Kxy = c_r diag(w) (x) S + c_s S (x) diag(w) acting on an
element's flattened ``(j, i)`` plane, and c_r = J rx^2, c_s = J sy^2,
c_t = J tz^2.  An apply is one GEMM over every element's planes, one
1-D apply along z and three field passes -- libParanumal's constant-
geometry ``Ax`` in place of six 1-D contractions.

Every operator accepts an optional ``out=`` buffer and draws its
internal temporaries from the per-rank workspace arena, so solver hot
loops run allocation-free; ``repro.perf.naive_mode`` restores
allocating expressions of the same arithmetic (operand order is
preserved, so the two paths agree bitwise wherever no contraction is
re-associated).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import Communicator, ReduceOp
from repro.perf import config
from repro.perf.arena import get_arena
from repro.sem.geometry import GeometricFactors
from repro.sem.gather_scatter import GatherScatter
from repro.sem.mesh import BoxMesh
from repro.sem.quadrature import derivative_matrix
from repro.sem.tensor import (
    apply_1d_x,
    apply_1d_y,
    apply_1d_z,
    apply_1d_z_reference,
    local_grad,
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
        # the factored uniform-box stiffness (module docstring); S is
        # symmetrized so that Kxy is exactly symmetric and serves as
        # its own transpose in the row-major plane GEMM
        w = mesh.weights_1d
        S = self.D.T @ (w[:, None] * self.D)
        self.S = 0.5 * (S + S.T)
        geom = self.geom
        c_r, c_s, c_t = (geom.jacobian * m * m for m in (geom.rx, geom.sy, geom.tz))
        W = np.diag(w)
        self._kxy = c_r * np.kron(W, self.S) + c_s * np.kron(self.S, W)
        # the per-node weights w_k and c_t w_j w_i, at an element's full
        # extent: a broadcast over E alone runs one contiguous inner loop
        # per element where a size-1 axis would run one per row
        nq = mesh.nq
        self._wk = np.repeat(w, nq * nq).reshape(nq, nq, nq)
        self._cww = np.tile(c_t * np.outer(w, w), (nq, 1, 1))
        self._volume: float | None = None
        self._ndofs: float | None = None
        self._ones: np.ndarray | None = None
        # persistent reduction buffers keyed by (shape, dtype), for
        # :meth:`integrate`: even an arena borrow/release pair is
        # measurable overhead on a reduction
        self._reduce_tmps: dict[tuple, np.ndarray] = {}

    @property
    def _ones_field(self) -> np.ndarray:
        """Cached constant-1 field (treat as read-only)."""
        if self._ones is None:
            self._ones = np.ones(self.mesh.field_shape())
        return self._ones

    # -- inner products ----------------------------------------------------
    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Global assembled l2 inner product (each global dof once).

        One pass over the three fields, summed in index order in one
        accumulator: no buffer, and no BLAS, whose threaded sums would
        make the bits depend on the host's thread count.
        """
        local = float(np.einsum(
            "i,i,i->", u.reshape(-1), self.gs.inv_multiplicity.reshape(-1),
            v.reshape(-1),
        ))
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
        """Weak Laplacian A f (unassembled); `out` must not alias `f`."""
        return self._factored_apply(f, self._kxy, self._cww, None, out)

    def helmholtz_weights(self, h1: float, h0) -> tuple:
        """``(h1 Kxy, h1 c_t w w, h0 B)``: the factored (h1 A + h0 B).

        A caller that applies one operator many times builds these once
        and passes them to :meth:`helmholtz_apply`.  A scalar `h0`
        keeps B to one element's weights: every element's are equal.
        """
        mass = self.geom.mass if np.ndim(h0) else self.geom.mass[:1]
        return h1 * self._kxy, h1 * self._cww, np.multiply(h0, mass)

    def helmholtz_apply(self, f: np.ndarray, h1: float, h0,
                        out: np.ndarray | None = None,
                        weights: tuple | None = None) -> np.ndarray:
        """(h1 A + h0 B) f; h0 may be a scalar or a per-node field
        (spatially varying reaction term, e.g. Brinkman penalty).
        `weights` is :meth:`helmholtz_weights` of the same h1 and h0;
        `out` must not alias `f`."""
        if weights is None:
            weights = self.helmholtz_weights(h1, h0)
        return self._factored_apply(f, *weights, out)

    def _factored_apply(self, f, kxy, cww, hb, out):
        """w_k (kxy f_k) + cww (S f along z) [+ hb f]."""
        E, nq = f.shape[0], self.mesh.nq
        plane = (E * nq, nq * nq)
        if not config.enabled():
            # np.tensordot of two matrices is the same GEMM as np.matmul
            res = np.tensordot(f.reshape(plane), kxy, axes=1).reshape(f.shape)
            res = res * self._wk + cww * apply_1d_z_reference(self.S, f)
            if hb is not None:
                res += hb * f
            return _into(res, out)
        if out is not None and not out.flags.c_contiguous:
            return _into(self._factored_apply(f, kxy, cww, hb, None), out)
        if out is None:
            out = np.empty(f.shape, np.result_type(f, kxy))
        np.matmul(f.reshape(plane), kxy, out=out.reshape(plane))
        out *= self._wk
        with get_arena().scratch(f.shape, out.dtype) as tmp:
            # apply_1d_z's GEMM, without its plan lookup
            np.matmul(self.S, f.reshape(E, nq, nq * nq),
                      out=tmp.reshape(E, nq, nq * nq))
            tmp *= cww
            out += tmp
            if hb is not None:
                np.multiply(hb, f, out=tmp)
                out += tmp
        return out

    def stiffness_diagonal(self, h1: float = 1.0, h0=0.0) -> np.ndarray:
        """Diagonal of the *assembled* Helmholtz operator (for Jacobi).

        Read off the factored operator: at node (k,j,i) it is
        w_k Kxy[(j,i),(j,i)] + c_t w_j w_i S_kk, times h1, plus h0 B;
        then gather-scattered.
        """
        kxy, cww, hb = self.helmholtz_weights(h1, h0)
        nq = self.mesh.nq
        local = self._wk * np.diagonal(kxy).reshape(nq, nq)
        local += np.diagonal(self.S)[:, None, None] * cww
        return self.gs(np.broadcast_to(local + hb, self.mesh.field_shape()))

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

    def convect(
        self, f: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Convective derivative (u . grad) f, pointwise (collocation)."""
        if not config.enabled():
            fx, fy, fz = self.grad(f)
            return u * fx + v * fy + w * fz
        with get_arena().scratch(f.shape, f.dtype, n=3) as (fx, fy, fz):
            self.grad(f, out=(fx, fy, fz))
            out = np.multiply(u, fx)
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
    def assemble(self, f: np.ndarray, out: np.ndarray | None = None,
                 index: np.ndarray | None = None) -> np.ndarray:
        """QQ^T f (direct-stiffness sum); see :class:`GatherScatter`."""
        return self.gs(f, out, index)

    def continuize(self, f: np.ndarray) -> np.ndarray:
        """Average redundant copies so the field is single-valued."""
        return self.gs.average(f)
