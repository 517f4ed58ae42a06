"""Look-at camera with perspective or orthographic projection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero-length vector in camera setup")
    return v / n


@dataclass
class Camera:
    """World -> screen transform.

    `project(points)` maps ``(N, 3)`` world points to ``(N, 3)`` where
    the first two columns are pixel coordinates and the third is view
    depth (larger = farther), which the rasterizer z-buffers on.
    """

    position: tuple[float, float, float]
    look_at: tuple[float, float, float]
    up: tuple[float, float, float] = (0.0, 0.0, 1.0)
    fov_degrees: float = 35.0
    width: int = 512
    height: int = 512
    orthographic: bool = False
    ortho_scale: float = 1.0   # world units spanned vertically (ortho only)

    _basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if not 0 < self.fov_degrees < 180:
            raise ValueError("fov must be in (0, 180) degrees")
        eye = np.asarray(self.position, dtype=float)
        target = np.asarray(self.look_at, dtype=float)
        forward = _normalize(target - eye)
        up = np.asarray(self.up, dtype=float)
        right = _normalize(np.cross(forward, up))
        true_up = np.cross(right, forward)
        self._basis = np.stack([right, true_up, forward])  # rows

    @classmethod
    def fit_bounds(
        cls,
        bounds: np.ndarray,
        direction: tuple[float, float, float] = (1.0, -1.5, 0.8),
        width: int = 512,
        height: int = 512,
        **kwargs,
    ) -> "Camera":
        """Frame an axis-aligned bounding box from a view direction."""
        bounds = np.asarray(bounds, dtype=float)
        center = bounds.mean(axis=1)
        radius = float(np.linalg.norm(bounds[:, 1] - bounds[:, 0])) / 2.0
        d = _normalize(np.asarray(direction, dtype=float))
        # tan(35 deg / 2) ~ 0.315 => the bounding sphere needs ~3.2
        # radii of standoff to fit; 3.4 leaves a margin
        eye = center + d * radius * 3.4
        return cls(
            position=tuple(eye),
            look_at=tuple(center),
            width=width,
            height=height,
            **kwargs,
        )

    def project(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        eye = np.asarray(self.position, dtype=float)
        cam = (pts - eye) @ self._basis.T   # columns: right, up, forward
        # each step writes its row of one (3, N) buffer in place; the
        # result is its (N, 3) transpose
        out = np.empty((3, len(cam)))
        sx, sy, z = out
        np.copyto(z, cam[:, 2])
        if self.orthographic:
            scale = self.height / self.ortho_scale
            np.multiply(cam[:, 0], scale, out=sx)
            np.multiply(cam[:, 1], scale, out=sy)
        else:
            f = (self.height / 2.0) / np.tan(np.radians(self.fov_degrees) / 2.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.multiply(cam[:, 0], f, out=sx)
                sx /= z
                np.multiply(cam[:, 1], f, out=sy)
                sy /= z
            behind = ~(z > 1e-9)
            sx[behind] = np.inf
            sy[behind] = np.inf
        sx += self.width / 2.0
        np.subtract(self.height / 2.0, sy, out=sy)   # screen y grows downward
        return out.T

    @property
    def view_direction(self) -> np.ndarray:
        return self._basis[2]
