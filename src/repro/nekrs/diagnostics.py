"""Derived flow diagnostics for analysis and visualization.

In situ pipelines rarely render raw state; they render derived
quantities — vorticity magnitude for turbulent structure, Q-criterion
isosurfaces for vortex cores.
These are computed with the solver's own spectral operators (so they
carry spectral accuracy) and continuized across element interfaces so
renderers see single-valued fields.
"""

from __future__ import annotations

import numpy as np

from repro.sem.operators import SEMOperators


def vorticity(ops: SEMOperators, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Vorticity vector (curl of velocity), continuized per component."""
    ux, uy, uz = ops.grad(u)
    vx, vy, vz = ops.grad(v)
    wx, wy, wz = ops.grad(w)
    om_x = wy - vz
    om_y = uz - wx
    om_z = vx - uy
    return (
        ops.continuize(om_x),
        ops.continuize(om_y),
        ops.continuize(om_z),
    )


def vorticity_magnitude(
    ops: SEMOperators, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    ox, oy, oz = vorticity(ops, u, v, w)
    return np.sqrt(ox * ox + oy * oy + oz * oz)


def q_criterion(
    ops: SEMOperators, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Q-criterion: Q = (|Omega|^2 - |S|^2) / 2.

    Positive Q marks regions where rotation dominates strain — the
    standard vortex-core indicator rendered as isosurfaces in
    production turbulence visualization.
    """
    ux, uy, uz = ops.grad(u)
    vx, vy, vz = ops.grad(v)
    wx, wy, wz = ops.grad(w)
    # strain-rate tensor S = (G + G^T)/2; rotation tensor O = (G - G^T)/2
    s_offdiag = (
        0.5 * (uy + vx),
        0.5 * (uz + wx),
        0.5 * (vz + wy),
    )
    s_norm2 = ux * ux + vy * vy + wz * wz + 2.0 * sum(t * t for t in s_offdiag)
    o_offdiag = (
        0.5 * (uy - vx),
        0.5 * (uz - wx),
        0.5 * (vz - wy),
    )
    o_norm2 = 2.0 * sum(t * t for t in o_offdiag)
    return ops.continuize(0.5 * (o_norm2 - s_norm2))
