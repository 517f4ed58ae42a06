"""Tensor-product operator application.

The defining optimization of SEM (and of libParanumal's GPU kernels) is
that a 3-D operator with a tensor-product structure is applied as three
small dense matrix products per element instead of one large one:
O(E N^4) work instead of O(E N^6).  Fields are shaped
``(E, Nq, Nq, Nq)`` indexed ``[e, k, j, i]`` (i varies along x).

Two implementations coexist (see ``docs/performance.md``):

- the optimized path reshapes each contraction into a single BLAS
  ``np.matmul`` whose geometry is memoized in the per-rank
  :class:`repro.perf.PlanCache`, and writes into caller-provided
  ``out=`` buffers so hot loops allocate nothing;
- the ``*_reference`` functions keep the original per-call-planned
  einsums.  ``repro.perf.naive_mode`` routes the public entry points
  through them, which is how the equivalence tests and the bench gate
  obtain before/after numbers from one build.
"""

from __future__ import annotations

import numpy as np

from repro.perf import config
from repro.perf.arena import get_arena
from repro.perf.plans import get_plan_cache


# -- reference (pre-optimization) paths ---------------------------------

def apply_1d_x_reference(A: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.einsum("ai,ekji->ekja", A, f, optimize=True)


def apply_1d_y_reference(A: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.einsum("bj,ekji->ekbi", A, f, optimize=True)


def apply_1d_z_reference(A: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.einsum("ck,ekji->ecji", A, f, optimize=True)


# -- optimized paths ----------------------------------------------------

def _into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return result
    out[...] = result
    return out


def _plan_1d(op: str, A: np.ndarray, f: np.ndarray):
    """Reshape geometry for one 1-D apply, memoized per (op, shapes)."""
    cache = get_plan_cache()
    key = (op, A.shape, f.shape, A.dtype.char, f.dtype.char)

    def build():
        a = A.shape[0]
        E, K, J, I = f.shape
        if op == "a1x":
            return (E, K, J, a), (E * K * J, I), (E * K * J, a)
        if op == "a1y":
            return (E, K, a, I), (E * K, J, I), (E * K, a, I)
        return (E, a, J, I), (E, K, J * I), (E, a, J * I)

    return cache.get(key, build)


def _fast_ok(A: np.ndarray, f: np.ndarray, out: np.ndarray) -> bool:
    """The matmul rewrite needs viewable reshapes and one dtype."""
    return (
        f.flags.c_contiguous
        and out.flags.c_contiguous
        and A.dtype == f.dtype == out.dtype
    )


def apply_1d_x(
    A: np.ndarray, f: np.ndarray, out: np.ndarray | None = None,
    AT: np.ndarray | None = None,
) -> np.ndarray:
    """Apply A along the x (last) axis: out[e,k,j,a] = A[a,i] f[e,k,j,i].

    `AT` is ``A.T`` made C-contiguous, for a caller that applies one
    matrix many times: BLAS runs the strided view ``A.T`` of a
    C-contiguous `A` at under half the speed, with the same bits.
    """
    if not config.enabled():
        return _into(apply_1d_x_reference(A, f), out)
    out_shape, f2, o2 = _plan_1d("a1x", A, f)
    if out is None:
        out = np.empty(out_shape, np.result_type(A, f))
    if _fast_ok(A, f, out):
        np.matmul(f.reshape(f2), A.T if AT is None else AT, out=out.reshape(o2))
    else:
        get_plan_cache().einsum("ai,ekji->ekja", A, f, out=out)
    return out


def apply_1d_y(A: np.ndarray, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply A along the y axis: out[e,k,b,i] = A[b,j] f[e,k,j,i]."""
    if not config.enabled():
        return _into(apply_1d_y_reference(A, f), out)
    out_shape, f3, o3 = _plan_1d("a1y", A, f)
    if out is None:
        out = np.empty(out_shape, np.result_type(A, f))
    if _fast_ok(A, f, out):
        np.matmul(A, f.reshape(f3), out=out.reshape(o3))
    else:
        get_plan_cache().einsum("bj,ekji->ekbi", A, f, out=out)
    return out


def apply_1d_z(A: np.ndarray, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply A along the z axis: out[e,c,j,i] = A[c,k] f[e,k,j,i]."""
    if not config.enabled():
        return _into(apply_1d_z_reference(A, f), out)
    out_shape, f3, o3 = _plan_1d("a1z", A, f)
    if out is None:
        out = np.empty(out_shape, np.result_type(A, f))
    if _fast_ok(A, f, out):
        np.matmul(A, f.reshape(f3), out=out.reshape(o3))
    else:
        get_plan_cache().einsum("ck,ekji->ecji", A, f, out=out)
    return out


def apply_3d(
    Ax: np.ndarray, Ay: np.ndarray, Az: np.ndarray, f: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Full tensor-product apply (Az (x) Ay (x) Ax) f.

    Handles rectangular factors (dealiasing interpolation changes the
    per-axis extent); intermediates come from the workspace arena.
    """
    if not config.enabled():
        return _into(
            apply_1d_z_reference(Az, apply_1d_y_reference(Ay, apply_1d_x_reference(Ax, f))),
            out,
        )
    E, K, J, _ = f.shape
    dtype = np.result_type(Ax, f)
    arena = get_arena()
    t1 = arena.borrow((E, K, J, Ax.shape[0]), dtype)
    t2 = arena.borrow((E, K, Ay.shape[0], Ax.shape[0]), dtype)
    try:
        apply_1d_x(Ax, f, out=t1)
        apply_1d_y(Ay, t1, out=t2)
        out = apply_1d_z(Az, t2, out=out)
    finally:
        arena.release(t1, t2)
    return out


def local_grad(
    D: np.ndarray, f: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    DT: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-space gradient (df/dr, df/ds, df/dt) of each element.

    `D` is the 1-D GLL differentiation matrix; r/s/t are the reference
    coordinates along x/y/z respectively.  Pass ``out=(fr, fs, ft)`` to
    reuse buffers, and `DT`, a C-contiguous ``D.T``, to run the
    x-derivative on it (see :func:`apply_1d_x`).
    """
    if out is None:
        return apply_1d_x(D, f, AT=DT), apply_1d_y(D, f), apply_1d_z(D, f)
    fr, fs, ft = out
    apply_1d_x(D, f, out=fr, AT=DT)
    apply_1d_y(D, f, out=fs)
    apply_1d_z(D, f, out=ft)
    return fr, fs, ft
