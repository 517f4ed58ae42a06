"""Threshold filter on volumes.

``threshold_by`` masks a volume where a selector field falls outside a
value range (NaN fill — the colormap renders NaN as neutral gray and
marching tetrahedra never crosses through NaN cells): the standard
"show me only the interesting part" pre-filter in front of slice and
contour passes.
"""

from __future__ import annotations

import numpy as np


def threshold_by(
    volume: np.ndarray,
    selector: np.ndarray,
    vmin: float = -np.inf,
    vmax: float = np.inf,
    fill: float = np.nan,
) -> np.ndarray:
    """Keep `volume` where a *different* field is in range.

    E.g. show temperature only where velocity magnitude is significant.
    """
    vol = np.asarray(volume, dtype=float)
    sel = np.asarray(selector, dtype=float)
    if sel.shape != vol.shape:
        raise ValueError(
            f"selector shape {sel.shape} does not match volume {vol.shape}"
        )
    out = vol.copy()
    out[(sel < vmin) | (sel > vmax)] = fill
    return out
