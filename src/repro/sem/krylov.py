"""Preconditioned conjugate gradients with rank-reduced inner products.

This is the workhorse linear solver of the NekRS analog: the pressure
Poisson and velocity/temperature Helmholtz systems are SPD after
assembly + masking, so preconditioned CG converges without drama.  The
preconditioner is either a diagonal (Jacobi: the mass-dominated
Helmholtz solves need no more) or a callable ``M(r, out)`` (the
pressure solve's two-level :class:`repro.sem.coarse.CoarseGrid`).
Inner products use the assembled dot product (every global dof
counted once) and reduce across ranks through the communicator, which
is exactly where NekRS spends its allreduce traffic.

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
    x = np.zeros_like(b) if x0 is None else x0.copy()
    if project_nullspace is not None:
        x = project_nullspace(x)

    r = b - apply_op(x) if x0 is not None else b.copy()
    if project_nullspace is not None:
        r = project_nullspace(r)

    z = _precondition(precond, r, np.empty_like(r)) if precond is not None else r
    rz = dot(r, z)
    r0 = float(np.sqrt(max(dot(r, r), 0.0)))
    if r0 == 0.0:
        return CGResult(x, 0, 0.0, 0.0, True)
    target = tol * r0

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
        applies the assembled, masked SPD operator.
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
    tol:
        relative to the initial *unpreconditioned* assembled residual
        ``||b - A x0||``: converged once ``||r|| <= tol * ||r0||``.
    """
    if not config.enabled():
        return cg_solve_reference(
            apply_op, b, dot, precond=precond, x0=x0, tol=tol,
            max_iterations=max_iterations, project_nullspace=project_nullspace,
        )

    arena = get_arena()
    # x escapes in the result, so it is a real allocation; the working
    # vectors are borrowed and released on every exit path.
    x = np.zeros_like(b) if x0 is None else x0.copy()
    if project_nullspace is not None:
        x = project_nullspace(x)

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
        if x0 is not None:
            np.subtract(b, apply_op(x), out=r)
        else:
            np.copyto(r, b)
        if project_nullspace is not None:
            np.copyto(r, project_nullspace(r))

        if precond is not None:
            _precondition(precond, r, z)
        rz = dot(r, z)
        r0 = float(np.sqrt(max(dot(r, r), 0.0)))
        if r0 == 0.0:
            return CGResult(x, 0, 0.0, 0.0, True)
        target = tol * r0

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
