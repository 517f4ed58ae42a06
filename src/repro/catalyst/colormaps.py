"""Perceptual colormaps for pseudocoloring.

Control points sampled from the standard viridis/plasma tables plus a
diverging coolwarm; piecewise-linear interpolation between them is
visually indistinguishable at render resolution and keeps the tables
small and dependency-free.
"""

from __future__ import annotations

import numpy as np

_MAPS: dict[str, np.ndarray] = {
    # (position-implicit uniform) RGB control points in [0, 1]
    "viridis": np.array(
        [
            [0.267, 0.005, 0.329],
            [0.283, 0.141, 0.458],
            [0.254, 0.265, 0.530],
            [0.207, 0.372, 0.553],
            [0.164, 0.471, 0.558],
            [0.128, 0.567, 0.551],
            [0.135, 0.659, 0.518],
            [0.267, 0.749, 0.441],
            [0.478, 0.821, 0.318],
            [0.741, 0.873, 0.150],
            [0.993, 0.906, 0.144],
        ]
    ),
    "plasma": np.array(
        [
            [0.050, 0.030, 0.528],
            [0.294, 0.012, 0.631],
            [0.492, 0.012, 0.658],
            [0.658, 0.134, 0.588],
            [0.798, 0.280, 0.469],
            [0.899, 0.422, 0.361],
            [0.973, 0.580, 0.254],
            [0.993, 0.766, 0.157],
            [0.940, 0.975, 0.131],
        ]
    ),
    "coolwarm": np.array(
        [
            [0.230, 0.299, 0.754],
            [0.406, 0.537, 0.934],
            [0.602, 0.731, 0.999],
            [0.788, 0.846, 0.939],
            [0.930, 0.820, 0.761],
            [0.967, 0.657, 0.537],
            [0.887, 0.413, 0.324],
            [0.706, 0.016, 0.150],
        ]
    ),
    "grayscale": np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
}


def colormap_names() -> list[str]:
    return sorted(_MAPS)


def apply_colormap(
    values: np.ndarray,
    vmin: float | None = None,
    vmax: float | None = None,
    name: str = "viridis",
) -> np.ndarray:
    """Map scalars to uint8 RGB, shape ``values.shape + (3,)``.

    NaNs map to mid-gray; a degenerate range maps everything to the
    low end (uniform fields render flat rather than raising).
    """
    if name not in _MAPS:
        raise KeyError(f"unknown colormap {name!r}; known: {colormap_names()}")
    table = _MAPS[name]
    vals = np.asarray(values, dtype=float)
    nan_mask = ~np.isfinite(vals)
    lo = float(np.nanmin(vals)) if vmin is None else float(vmin)
    hi = float(np.nanmax(vals)) if vmax is None else float(vmax)
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        t = np.zeros_like(vals)
    else:
        t = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    t = np.where(nan_mask, 0.0, t)
    pos = t * (len(table) - 1)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, len(table) - 1)
    frac = (pos - i0)[..., None]
    rgb = table[i0] * (1.0 - frac) + table[i1] * frac
    rgb[nan_mask] = 0.5
    return (rgb * 255.0 + 0.5).astype(np.uint8)
