"""Z-buffered triangle rasterizer with Gouraud shading.

A deliberately small software renderer: triangles are filled with
barycentric interpolation at the pixel centres they cover, depth
tested against a z-buffer, and shaded with a Lambertian term from a
single directional light — the same balance the paper's Catalyst
endpoint targets (rendering well under solver-step cost).

Two fill paths share the exact same per-pixel math:

- the *batched* default tests, per triangle, only the pixels whose
  centre lies in the triangle's extent widened by ``_GUARD`` (a third of
  the bounding-box pixels on a marching-tetrahedra surface; triangles
  holding no centre are never expanded), evaluates all triangles of one
  box shape as one dense ``(n, h, w)`` block, orders the survivors of
  the inside test with one sort on ``pixel * n + submission index`` and
  resolves the z-buffer with a grouped prefix-minimum scan;
- the original per-triangle loop is kept as the reference
  (``repro.perf.naive_mode``); the two are bit-for-bit identical —
  including ``triangles_drawn``, which counts a triangle as drawn if
  it won the depth test *at its own draw time* even if a later
  triangle occludes it.

The tight box must be a superset of what the loop's float test accepts
inside its ``floor .. ceil + 1`` box.  It is: an accepted centre has
exact barycentrics ``>= -eps`` with ``eps <= 64 u (ex + 2)(ey + 2) /
|area|`` (``u = 2**-53``; `ex`, `ey` the extent), hence lies at most
``2 eps max(ex, ey)`` outside the extent.  A triangle for which that
bound exceeds ``_GUARD`` — a sliver (``|area|`` tiny against the
extent), a huge or overflowing extent — keeps the loop's full box.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.catalyst.camera import Camera
from repro.perf import config

#: candidate pixels resolved per batched pass (plus at most one
#: triangle's); passes split on triangle boundaries in submission
#: order, so chunking cannot change the sequential z-buffer semantics
_CHUNK_PIXELS = 1 << 19

#: slack (pixels) around a triangle's extent when collecting the pixel
#: centres to test, and the largest ``(ex + 2)(ey + 2) max(ex, ey) /
#: |area|`` for which that slack covers the float inside-test
_GUARD = 2.0 ** -10
_WELL = _GUARD * 2.0 ** 53 / 128


class Rasterizer:
    def __init__(
        self,
        width: int,
        height: int,
        background: tuple[int, int, int] = (18, 22, 30),
        arena=None,
    ):
        """`arena` (a :class:`~repro.perf.arena.WorkspaceArena` or a
        device's ``raw_view()``) lends the two framebuffers until
        :meth:`close`; without one they are plain allocations."""
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be positive")
        self.width = width
        self.height = height
        if arena is not None:
            self.color = arena.borrow((height, width, 3), np.uint8)
            self.depth = arena.borrow((height, width), np.float64)
            self.depth.fill(np.inf)
        else:
            self.color = np.empty((height, width, 3), dtype=np.uint8)
            self.depth = np.full((height, width), np.inf)
        self._arena = arena
        self.color[:] = np.asarray(background, dtype=np.uint8)
        self.triangles_drawn = 0
        self.candidates_tested = 0

    def image(self) -> np.ndarray:
        """The current framebuffer (H, W, 3) uint8.

        For an arena-backed rasterizer this is the live (borrowed)
        buffer; callers that keep the frame past the rasterizer's life
        must pair it with ``close(keep_image=True)``, which adopts the
        buffer out of the arena instead of recycling it.
        """
        return self.color

    def depth_image(self) -> np.ndarray:
        """A float32 copy of the z-buffer (H, W); ``inf`` where nothing
        was drawn — the sort-last compositor exchanges float32 depths
        to halve compositing traffic."""
        return self.depth.astype(np.float32)

    def close(self, keep_image: bool = False) -> None:
        """Return arena-backed buffers to the pool.

        With `keep_image` the color buffer escapes with the caller
        (arena stops tracking it without recycling it); the depth
        buffer is always recycled.  No-op for plain rasterizers and on
        repeated calls.
        """
        arena, self._arena = self._arena, None
        if arena is None:
            return
        if keep_image:
            arena.adopt(self.color)
        else:
            arena.release(self.color)
        arena.release(self.depth)

    def draw_mesh(
        self,
        camera: Camera,
        vertices: np.ndarray,
        faces: np.ndarray,
        vertex_colors: np.ndarray,
        light_direction: tuple[float, float, float] = (0.4, -0.6, 0.8),
        ambient: float = 0.35,
    ) -> int:
        """Render a triangle mesh; returns triangles actually drawn.

        `vertices` (V, 3) world coords, `faces` (F, 3) indices,
        `vertex_colors` (V, 3) uint8.
        """
        vertices = np.asarray(vertices, dtype=float)
        faces = np.asarray(faces, dtype=np.int64)
        vertex_colors = np.asarray(vertex_colors)
        if len(faces) == 0 or len(vertices) == 0:
            return 0
        if vertex_colors.shape != (len(vertices), 3):
            raise ValueError("vertex_colors must be (V, 3)")

        screen = camera.project(vertices)
        # face normals in world space for lighting
        v0, v1, v2 = vertices[faces.T]
        n = np.cross(v1 - v0, v2 - v0)
        norms = np.linalg.norm(n, axis=1)
        norms[norms == 0] = 1.0
        n /= norms[:, None]
        light = np.asarray(light_direction, dtype=float)
        light = light / np.linalg.norm(light)
        intensity = ambient + (1.0 - ambient) * np.abs(n @ light)

        if config.enabled():
            drawn = self._raster_batched(screen, faces, vertex_colors, intensity)
        else:
            drawn = sum(
                self._raster_triangle(screen[f], vertex_colors[f].astype(float), i)
                for f, i in zip(faces, intensity)
            )
        self.triangles_drawn += drawn
        return drawn

    # -- batched fill --------------------------------------------------
    def _raster_batched(
        self, screen: np.ndarray, faces: np.ndarray, vertex_colors: np.ndarray,
        intensity: np.ndarray,
    ) -> int:
        """Fill `faces` over projected `screen` vertices in submission order.

        Replays the per-triangle loop's z-buffer exactly: a candidate
        pixel passes iff its z beats the depth buffer *and* every
        earlier candidate at that pixel (strict ``<``), which is what
        the sequential loop's read-modify-write sequence computes.

        Candidates come from the tight pixel-centre box, or the loop's
        full box for ill-conditioned triangles (module docstring).
        """
        size = np.array([[self.width], [self.height]])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sx, sy, sz = np.ascontiguousarray(screen.T)
            corner = np.ascontiguousarray(faces.T)
            xs, ys, zs = sx[corner], sy[corner], sz[corner]
            (ax, bx, cx), (ay, by, cy) = xs, ys
            area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            lo = np.stack([xs.min(axis=0), ys.min(axis=0)])
            hi = np.stack([xs.max(axis=0), ys.max(axis=0)])
            ex, ey = hi - lo
            # (an overflowing bound divides to inf or nan: not tight)
            tight = (ex + 2.0) * (ey + 2.0) * np.maximum(ex, ey) / np.abs(area) <= _WELL
            lo = np.where(tight, np.ceil(lo - (0.5 + _GUARD)), np.floor(lo))
            hi = np.where(tight, np.floor(hi - (0.5 - _GUARD)), np.ceil(hi)) + 1.0
            # clamp in float first so huge finite coordinates cannot
            # overflow the int cast; out-of-range boxes collapse to empty
            x0, y0 = origin = np.clip(lo, 0, size).astype(np.int64)
            bw, bh = np.clip(hi, 0, size).astype(np.int64) - origin
            # cull exactly what _raster_triangle rejects up front (a
            # non-finite corner poisons the arithmetic above, not `sel`)
            vok = np.isfinite(sx) & np.isfinite(sy) & np.isfinite(sz) & (sz > 0)
            sel = np.flatnonzero(
                vok[corner].all(axis=0) & (np.abs(area) >= 1e-12) & (bw > 0) & (bh > 0)
            )
            geom = (*xs, *ys, area, x0 + 0.5, y0 + 0.5, *zs, y0 * self.width + x0)
            bw, bh = bw[sel], bh[sel]
            window = (np.cumsum(bw * bh) - bw * bh) // _CHUNK_PIXELS
            cuts = np.flatnonzero(np.diff(window, prepend=-1, append=-1)).tolist()
            return sum(
                self._fill_chunk(
                    sel[a:b], bh[a:b], bw[a:b], geom, faces, vertex_colors, intensity
                ) for a, b in zip(cuts[:-1], cuts[1:])
            )

    def _fill_chunk(self, tri, bh, bw, geom, faces, vertex_colors, intensity) -> int:
        """Resolve triangles `tri` (submission order) against the z-buffer;
        ``geom[:9]`` feeds the blocks, ``geom[9:]`` the inside-test survivors."""
        # one dense (k, h, w) block per box shape, evaluated with the
        # same expressions as _raster_triangle
        shape = bh * (self.width + 1) + bw
        by_shape = np.argsort(shape, kind="stable")
        shape, bw, tri_s = shape[by_shape], bw[by_shape], tri[by_shape]
        # corners, area, centre of each box's first pixel
        ax, bx, cx, ay, by, cy, area, cx0, cy0 = (
            g[tri_s][:, None, None] for g in geom[:9]
        )
        first = np.concatenate(([0], np.cumsum(bh[by_shape] * bw)))
        self.candidates_tested += int(first[-1])
        w0, w1 = np.empty((2, first[-1]))
        step = np.arange(float(max(self.width, self.height)))
        edges = np.flatnonzero(np.diff(shape, prepend=-1, append=-1)).tolist()
        for a, b in zip(edges[:-1], edges[1:]):
            h, w = divmod(int(shape[a]), self.width + 1)
            block = slice(first[a], first[b])
            px = cx0[a:b] + step[:w]
            py = cy0[a:b] + step[:h, None]
            cpx, cpy = cx[a:b] - px, cy[a:b] - py
            np.divide(
                (bx[a:b] - px) * cpy - (by[a:b] - py) * cpx, area[a:b],
                out=w0[block].reshape(b - a, h, w),
            )
            np.divide(
                cpx * (ay[a:b] - py) - cpy * (ax[a:b] - px), area[a:b],
                out=w1[block].reshape(b - a, h, w),
            )
        w2 = 1.0 - w0 - w1
        hit = np.flatnonzero((w0 >= 0) & (w1 >= 0) & (w2 >= 0))
        if hit.size == 0:
            return 0
        w0, w1, w2 = w0[hit], w1[hit], w2[hit]
        t = np.searchsorted(first, hit, side="right") - 1
        row, col = np.divmod(hit - first[t], bw[t])
        za, zb, zc, pix0 = (g[tri_s[t]] for g in geom[9:])
        pix = pix0 + row * self.width + col
        sub = by_shape[t]
        z = w0 * za + w1 * zb + w2 * zc

        # group candidates by pixel, submission order inside each group:
        # `pix * len(tri) + sub` is unique, so one unstable sort does both
        order = np.argsort(pix * len(tri) + sub)
        pixs, zs, tids = pix[order], z[order], sub[order]
        seg = np.diff(pixs, prepend=-1) != 0
        pos = np.arange(len(pixs))
        segpos = np.maximum.accumulate(np.where(seg, pos, 0))

        # a candidate passes iff z < min(buffer depth, all earlier
        # candidates' z at the pixel): failing candidates never lower
        # the buffer, so the all-candidates prefix min gives the same
        # strict comparison as the sequential passing-only min.
        depth_flat = self.depth.reshape(-1)
        q = zs.copy()  # in-segment inclusive prefix min (doubling scan)
        d = 1
        while d < len(pos):
            idx = np.flatnonzero(pos - segpos >= d)
            if idx.size == 0:
                break
            q[idx] = np.minimum(q[idx], q[idx - d])
            d *= 2
        prev = depth_flat[pixs]
        np.minimum(prev[1:], np.where(seg[1:], np.inf, q[:-1]), out=prev[1:])
        passes = zs < prev
        # final owner of a pixel = last passing candidate (the running
        # strict minimum makes passing z strictly decreasing)
        winner = np.maximum.reduceat(np.where(passes, pos, -1), np.flatnonzero(seg))
        winner = winner[winner >= 0]
        pixw = pixs[winner]
        depth_flat[pixw] = zs[winner]
        src = order[winner]
        f = tri[tids[winner]]
        colors = vertex_colors[faces[f]]
        rgb = (
            w0[src, None] * colors[:, 0]
            + w1[src, None] * colors[:, 1]
            + w2[src, None] * colors[:, 2]
        ) * intensity[f][:, None]
        np.clip(rgb, 0.0, 255.0, out=rgb)
        self.color.reshape(-1, 3)[pixw] = rgb.astype(np.uint8)
        return int(np.count_nonzero(np.bincount(tids[passes], minlength=1)))

    def _raster_triangle(
        self, tri: np.ndarray, colors: np.ndarray, intensity: float
    ) -> bool:
        """Fill one screen-space triangle; returns True if any pixel hit."""
        if not np.all(np.isfinite(tri)):
            return False
        if np.any(tri[:, 2] <= 0):          # behind the camera
            return False
        xs, ys = tri[:, 0], tri[:, 1]
        x0 = max(int(np.floor(xs.min())), 0)
        x1 = min(int(np.ceil(xs.max())) + 1, self.width)
        y0 = max(int(np.floor(ys.min())), 0)
        y1 = min(int(np.ceil(ys.max())) + 1, self.height)
        if x0 >= x1 or y0 >= y1:
            return False

        ax, ay = tri[0, 0], tri[0, 1]
        bx, by = tri[1, 0], tri[1, 1]
        cx, cy = tri[2, 0], tri[2, 1]
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(area) < 1e-12:
            return False

        px, py = np.meshgrid(
            np.arange(x0, x1) + 0.5, np.arange(y0, y1) + 0.5
        )
        w0 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / area
        w1 = ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / area
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            return False

        z = w0 * tri[0, 2] + w1 * tri[1, 2] + w2 * tri[2, 2]
        tile = self.depth[y0:y1, x0:x1]
        visible = inside & (z < tile)
        if not visible.any():
            return False
        tile[visible] = z[visible]

        rgb = (
            w0[..., None] * colors[0]
            + w1[..., None] * colors[1]
            + w2[..., None] * colors[2]
        ) * intensity
        np.clip(rgb, 0.0, 255.0, out=rgb)
        self.color[y0:y1, x0:x1][visible] = rgb[visible].astype(np.uint8)
        return True

    def draw_background_gradient(
        self,
        top: tuple[int, int, int] = (30, 36, 48),
        bottom: tuple[int, int, int] = (8, 10, 14),
    ) -> None:
        """Vertical gradient backdrop (drawn only where nothing rendered)."""
        apply_background_gradient(self.color, self.depth, top, bottom)


def apply_background_gradient(
    color: np.ndarray,
    depth: np.ndarray,
    top: tuple[int, int, int] = (30, 36, 48),
    bottom: tuple[int, int, int] = (8, 10, 14),
) -> None:
    """Gradient-fill `color` wherever `depth` says nothing rendered.

    Shared by :meth:`Rasterizer.draw_background_gradient` and the
    sort-last compositor, which must apply the identical backdrop to a
    *composited* framebuffer on the root rank.
    """
    rows = _gradient_rows(
        depth.shape[0], tuple(map(float, top)), tuple(map(float, bottom))
    )
    np.copyto(color, rows[:, None], where=~np.isfinite(depth)[..., None])


@functools.lru_cache(maxsize=16)
def _gradient_rows(
    height: int, top: tuple[float, ...], bottom: tuple[float, ...]
) -> np.ndarray:
    """Read-only ``(height, 3)`` uint8 backdrop, one colour per row."""
    t = np.linspace(0.0, 1.0, height)[:, None]
    rows = ((1 - t) * np.asarray(top) + t * np.asarray(bottom)).astype(np.uint8)
    rows.flags.writeable = False
    return rows
