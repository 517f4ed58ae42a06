"""Plane slices through volumes.

``axis_slice`` pulls an axis-aligned plane out of a volume (with linear
interpolation between lattice planes) — this is how the RBC "side
view" (paper Fig. 4) is rendered.  ``trilinear_sample`` interpolates
a volume at arbitrary world points.
"""

from __future__ import annotations

import numpy as np

_AXES = {"x": 2, "y": 1, "z": 0}   # volume is [k, j, i] = [z, y, x]


def slice_plan(
    n: int,
    axis: str,
    position: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[int, int, float]:
    """Lattice interpolation plan ``(i0, i1, t)`` for `axis` = `position`.

    The plane interpolates between lattice planes ``i0`` and ``i1`` of
    an `n`-sample axis with weight ``t``: ``(1 - t) * lo + t * hi``.
    Factored out of :func:`axis_slice` so the sort-last compositor can
    compute the identical plan against global grid metadata and gather
    only the two contributing lattice planes from the rank fragments.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be x|y|z, got {axis!r}")
    world_axis = {"x": 0, "y": 1, "z": 2}[axis]
    coord = (position - origin[world_axis]) / spacing[world_axis]
    if not -0.5 <= coord <= n - 0.5:
        raise ValueError(
            f"slice position {position} outside the volume along {axis}"
        )
    coord = float(np.clip(coord, 0.0, n - 1))
    i0 = int(np.floor(coord))
    i1 = min(i0 + 1, n - 1)
    return i0, i1, coord - i0


def axis_slice(
    volume: np.ndarray,
    axis: str,
    position: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """Extract the plane `axis = position` (world units) as a 2-D array.

    The result keeps the remaining two axes in (slow, fast) order, e.g.
    slicing ``y`` returns an array indexed [z, x].
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be x|y|z, got {axis!r}")
    vol = np.asarray(volume, dtype=float)
    if vol.ndim != 3:
        raise ValueError("volume must be 3-D")
    vax = _AXES[axis]
    i0, i1, t = slice_plan(vol.shape[vax], axis, position, origin, spacing)
    lo = np.take(vol, i0, axis=vax)
    hi = np.take(vol, i1, axis=vax)
    return (1.0 - t) * lo + t * hi


def trilinear_sample(
    volume: np.ndarray,
    origin: tuple[float, float, float],
    spacing: tuple[float, float, float],
    points: np.ndarray,
    fill: float = np.nan,
) -> np.ndarray:
    """Trilinear interpolation of the volume at arbitrary world points."""
    vol = np.asarray(volume, dtype=float)
    nz, ny, nx = vol.shape
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    gx = (pts[:, 0] - origin[0]) / spacing[0]
    gy = (pts[:, 1] - origin[1]) / spacing[1]
    gz = (pts[:, 2] - origin[2]) / spacing[2]
    valid = (
        (gx >= 0) & (gx <= nx - 1)
        & (gy >= 0) & (gy <= ny - 1)
        & (gz >= 0) & (gz <= nz - 1)
    )
    out = np.full(len(pts), fill, dtype=float)
    if not valid.any():
        return out
    gx, gy, gz = gx[valid], gy[valid], gz[valid]
    x0 = np.clip(np.floor(gx).astype(int), 0, nx - 2) if nx > 1 else np.zeros(len(gx), int)
    y0 = np.clip(np.floor(gy).astype(int), 0, ny - 2) if ny > 1 else np.zeros(len(gy), int)
    z0 = np.clip(np.floor(gz).astype(int), 0, nz - 2) if nz > 1 else np.zeros(len(gz), int)
    fx = gx - x0
    fy = gy - y0
    fz = gz - z0
    x1 = np.minimum(x0 + 1, nx - 1)
    y1 = np.minimum(y0 + 1, ny - 1)
    z1 = np.minimum(z0 + 1, nz - 1)
    c000 = vol[z0, y0, x0]
    c100 = vol[z0, y0, x1]
    c010 = vol[z0, y1, x0]
    c110 = vol[z0, y1, x1]
    c001 = vol[z1, y0, x0]
    c101 = vol[z1, y0, x1]
    c011 = vol[z1, y1, x0]
    c111 = vol[z1, y1, x1]
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    out[valid] = c0 * (1 - fz) + c1 * fz
    return out
