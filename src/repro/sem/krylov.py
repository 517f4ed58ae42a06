"""Preconditioned conjugate gradients with rank-reduced inner products.

This is the workhorse linear solver of the NekRS analog: the pressure
Poisson and velocity/temperature Helmholtz systems are SPD after
assembly + masking, so preconditioned CG converges without drama.  The
preconditioner is either a diagonal (Jacobi: the mass-dominated
Helmholtz solves need no more) or a callable ``M(r, out)`` (the
pressure solve's two-level :class:`repro.sem.coarse.CoarseGrid`).
Inner products use the assembled dot product (every global dof
counted once) and reduce across ranks through the communicator, which
is exactly where NekRS spends its allreduce traffic.  A solve stops at
``||r|| <= tol * ||b||`` like NekRS's ``residualTol``, so an initial
guess close to the solution ends it early instead of tightening its
finish line.  :class:`ResidualProjection` builds such a guess from the
last few solutions (NekRS's ``residualProj``).

The default path borrows its vectors (r, z, p and one temporary) from
the per-rank workspace arena and updates them in place, so an
iteration allocates nothing beyond whatever ``apply_op`` returns.
Every in-place update keeps the reference path's elementwise operand
order, so the iterates are bit-for-bit identical to
:func:`cg_solve_reference` (kept for the equivalence tests and the
bench gate, and selected by ``repro.perf.naive_mode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.perf import config
from repro.perf.arena import get_arena


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float
    #: ``||r||`` of the iterate CG started from: the guess, or x = 0
    initial_residual: float
    converged: bool

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CGResult(iters={self.iterations}, res={self.residual:.3e}, "
            f"converged={self.converged})"
        )


def _precondition(precond, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = M r`` for a diagonal (array) or callable ``M(r, out)``."""
    if callable(precond):
        return precond(r, out)
    return np.multiply(r, precond, out=out)


def _starting_iterate(apply_op, b, dot, x0, project_nullspace, r):
    """``(x, ||b||, ||r||)`` that CG starts from, its residual written
    into `r`.

    `b` is taken after the nullspace projection.  A guess `x0` whose
    residual exceeds ``||b||`` is dropped for x = 0, so no solve starts
    worse than, or iterates more than, its cold start.  The `x`
    returned is fresh.
    """
    start = b if project_nullspace is None else project_nullspace(b)
    b_norm = float(np.sqrt(max(dot(start, start), 0.0)))
    if x0 is not None:
        x = x0.copy()
        if project_nullspace is not None:
            x = project_nullspace(x)
        np.subtract(b, apply_op(x), out=r)
        if project_nullspace is not None:
            np.copyto(r, project_nullspace(r))
        guess_norm = float(np.sqrt(max(dot(r, r), 0.0)))
        if guess_norm <= b_norm:
            return x, b_norm, guess_norm
    np.copyto(r, start)
    return np.zeros_like(b), b_norm, b_norm


def cg_solve_reference(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    dot: Callable[[np.ndarray, np.ndarray], float],
    precond: np.ndarray | Callable | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 500,
    project_nullspace: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Original allocating PCG, kept as the gate/equivalence reference."""
    r = np.empty_like(b)
    x, b_norm, r0 = _starting_iterate(apply_op, b, dot, x0, project_nullspace, r)
    target = tol * b_norm
    if r0 <= target:
        return CGResult(x, 0, r0, r0, True)

    z = _precondition(precond, r, np.empty_like(r)) if precond is not None else r
    rz = dot(r, z)

    p = z.copy()
    res = r0
    for it in range(1, max_iterations + 1):
        Ap = apply_op(p)
        pAp = dot(p, Ap)
        if pAp <= 0:
            # operator lost positive-definiteness (masking error or
            # roundoff on a tiny system) -- bail out with best iterate
            return CGResult(x, it - 1, res, r0, False)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if project_nullspace is not None:
            r = project_nullspace(r)
        res = float(np.sqrt(max(dot(r, r), 0.0)))
        if res <= target:
            if project_nullspace is not None:
                x = project_nullspace(x)
            return CGResult(x, it, res, r0, True)
        z = _precondition(precond, r, np.empty_like(r)) if precond is not None else r
        rz_new = dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    if project_nullspace is not None:
        x = project_nullspace(x)
    return CGResult(x, max_iterations, res, r0, False)


def cg_solve(
    apply_op: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    dot: Callable[[np.ndarray, np.ndarray], float],
    precond: np.ndarray | Callable | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iterations: int = 500,
    project_nullspace: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Solve ``A x = b`` by PCG.

    Parameters
    ----------
    apply_op:
        applies the assembled, masked SPD operator.  The array it
        returns is read only until its next call, so it may be one
        buffer the caller reuses.
    b:
        right-hand side, already assembled and masked.
    dot:
        global inner product (reduces over ranks).
    precond:
        diagonal preconditioner (elementwise inverse already applied,
        i.e. this array multiplies the residual), or a callable
        ``M(r, out)`` that writes the preconditioned residual into
        `out` and returns it; None = identity.
    project_nullspace:
        optional projector applied to iterates/residuals (used to pin
        the pressure mean for the all-Neumann Poisson problem).
    x0:
        initial guess (not modified).  Kept only if its residual is no
        larger than ``||b||``; otherwise CG starts from x = 0.
    tol:
        relative to the *unpreconditioned* assembled right-hand side:
        converged once ``||r|| <= tol * ||b||`` (b after the nullspace
        projection), whatever the initial guess.  So a cold start
        (``x0=None``, ``r0 = b``) stops where a residual-relative rule
        would, and a good guess stops sooner instead of being held to
        a stricter bound.
    """
    if not config.enabled():
        return cg_solve_reference(
            apply_op, b, dot, precond=precond, x0=x0, tol=tol,
            max_iterations=max_iterations, project_nullspace=project_nullspace,
        )

    # x escapes in the result, so it is a real allocation; the working
    # vectors are borrowed and released on every exit path.
    arena = get_arena()
    r = arena.borrow(b.shape, b.dtype)
    p = arena.borrow(b.shape, b.dtype)
    tmp = arena.borrow(b.shape, b.dtype)
    borrowed = [r, p, tmp]
    if precond is not None:
        z = arena.borrow(b.shape, b.dtype)
        borrowed.append(z)
    else:
        z = r  # the reference path aliases z = r too
    try:
        x, b_norm, r0 = _starting_iterate(
            apply_op, b, dot, x0, project_nullspace, r
        )
        target = tol * b_norm
        if r0 <= target:
            return CGResult(x, 0, r0, r0, True)
        if precond is not None:
            _precondition(precond, r, z)
        rz = dot(r, z)

        np.copyto(p, z)
        res = r0
        for it in range(1, max_iterations + 1):
            Ap = apply_op(p)
            pAp = dot(p, Ap)
            if pAp <= 0:
                return CGResult(x, it - 1, res, r0, False)
            alpha = rz / pAp
            np.multiply(p, alpha, out=tmp)
            x += tmp
            np.multiply(Ap, alpha, out=tmp)
            r -= tmp
            if project_nullspace is not None:
                np.copyto(r, project_nullspace(r))
            res = float(np.sqrt(max(dot(r, r), 0.0)))
            if res <= target:
                if project_nullspace is not None:
                    x = project_nullspace(x)
                return CGResult(x, it, res, r0, True)
            if precond is not None:
                _precondition(precond, r, z)
            rz_new = dot(r, z)
            beta = rz_new / rz
            rz = rz_new
            # p = z + beta * p, reusing p's storage (float add commutes
            # bitwise, so this matches the reference exactly)
            p *= beta
            p += z
        if project_nullspace is not None:
            x = project_nullspace(x)
        return CGResult(x, max_iterations, res, r0, False)
    finally:
        arena.release(*borrowed)


class ResidualProjection:
    """Successive right-hand-side projection (Fischer, CMAME 163, 1998).

    Keeps an A-orthonormal basis ``X`` (under ``ops.dot``) of the last
    ``L`` solutions of one operator.  :meth:`guess` returns the
    A-projection ``X X^T b`` of a new right-hand side, the best start
    the span holds; :meth:`update` folds each new solution in with one
    operator apply, classical Gram-Schmidt and a normalising dot.  A X
    is not stored.  When the basis is full it restarts from the newest
    solution.  `ops` (a :class:`repro.sem.operators.SEMOperators`)
    supplies the field shape, ``dot``, ``comm`` and the assembled-dot
    weights ``gs.inv_multiplicity``.
    """

    #: basis size: NekRS's default, and the only one
    L = 8

    def __init__(self, ops):
        self.ops = ops
        self.basis = np.zeros((self.L,) + tuple(ops.mesh.field_shape()))
        self._rows = self.basis.reshape(self.L, -1)  # a view
        self.count = 0

    def _coefficients(self, v: np.ndarray, n: int, extra=None) -> np.ndarray:
        """``X[:n]^T v`` (and ``extra . v`` appended): one local GEMV
        and one allreduce of the n (+1) values."""
        local = np.empty(n + (extra is not None))
        with get_arena().scratch(v.shape, v.dtype) as wv:
            np.multiply(v, self.ops.gs.inv_multiplicity, out=wv)
            local[:n] = self._rows[:n] @ wv.reshape(-1)
            if extra is not None:
                local[n] = extra.reshape(-1) @ wv.reshape(-1)
        return self.ops.comm.allreduce_array(local)

    def guess(self, b: np.ndarray, out: np.ndarray) -> np.ndarray | None:
        """Write the projection of ``A^-1 b`` onto the basis into `out`
        and return it; None while the basis is empty."""
        n = self.count
        if n == 0:
            return None
        alpha = self._coefficients(b, n)
        np.dot(alpha, self._rows[:n], out=out.reshape(-1))
        return out

    def update(self, x: np.ndarray, apply_op, project=None,
               guess: np.ndarray | None = None) -> None:
        """Add solution `x` of the solve that started from `guess` (what
        :meth:`guess` returned) to the basis.

        The new direction is the correction ``x - guess``, already
        nearly A-orthogonal to the basis, so one Gram-Schmidt pass keeps
        X^T A X = I to round-off; a full basis restarts from `x` itself.
        `project` keeps the vector in the nullspace-projected space of a
        singular operator.
        """
        if self.count == self.L:
            self.count, guess = 0, None
        n = self.count
        v = self.basis[n]
        if guess is None:
            np.copyto(v, x)
        else:
            np.subtract(x, guess, out=v)
        av = apply_op(v)
        coeffs = self._coefficients(av, n, extra=v)
        with get_arena().scratch(v.shape, v.dtype) as xc:
            np.dot(coeffs[:n], self._rows[:n], out=xc.reshape(-1))
            v -= xc
        if project is not None:
            np.copyto(v, project(v))
        # v^T A v = v^T A v_old once v is A-orthogonal to X; a direction
        # that keeps under 1e-7 of its A-norm (NekRS's test) is already
        # in the span and adds nothing
        norm2 = self.ops.dot(v, av)
        if norm2 > 1e-14 * coeffs[n]:
            v /= np.sqrt(norm2)
            self.count = n + 1
