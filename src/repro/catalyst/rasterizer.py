"""Z-buffered triangle rasterizer with Gouraud shading.

A deliberately small software renderer: triangles are filled with
barycentric interpolation inside their screen bounding boxes, depth
tested against a z-buffer, and shaded with a Lambertian term from a
single directional light — the same balance the paper's Catalyst
endpoint targets (rendering well under solver-step cost).

Two fill paths share the exact same per-pixel math:

- the *batched* default expands every triangle's bounding box into one
  flat candidate-pixel array and resolves the z-buffer with a grouped
  prefix-minimum scan, so a whole mesh rasterizes in a handful of
  vectorized passes instead of a Python loop per triangle;
- the original per-triangle loop is kept as the reference
  (``repro.perf.naive_mode``); the two are bit-for-bit identical —
  including ``triangles_drawn``, which counts a triangle as drawn if
  it won the depth test *at its own draw time* even if a later
  triangle occludes it.
"""

from __future__ import annotations

import numpy as np

from repro.catalyst.camera import Camera
from repro.perf import config

#: max candidate pixels resolved per batched pass; chunks are split on
#: triangle boundaries in submission order, so chunking cannot change
#: the sequential z-buffer semantics
_CHUNK_PIXELS = 1 << 19


class Rasterizer:
    def __init__(
        self,
        width: int,
        height: int,
        background: tuple[int, int, int] = (18, 22, 30),
        from_arena: bool = False,
    ):
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be positive")
        self.width = width
        self.height = height
        if from_arena and config.enabled():
            from repro.perf.arena import get_arena

            arena = get_arena()
            self.color = arena.borrow((height, width, 3), np.uint8)
            self.depth = arena.borrow((height, width), np.float64)
            self.depth.fill(np.inf)
            self._arena = arena
        else:
            self.color = np.empty((height, width, 3), dtype=np.uint8)
            self.depth = np.full((height, width), np.inf)
            self._arena = None
        self.color[:] = np.asarray(background, dtype=np.uint8)
        self.triangles_drawn = 0

    @classmethod
    def wrap(
        cls,
        color: np.ndarray,
        depth: np.ndarray,
        background: tuple[int, int, int] = (18, 22, 30),
    ) -> "Rasterizer":
        """Rasterizer over caller-owned framebuffers.

        Initializes `color`/`depth` exactly as the constructor does
        (background fill, ``inf`` depth) but allocates nothing — the
        device-resident path hands in raw views of device-arena
        buffers, so every fill and depth test runs on device memory.
        """
        if color.shape[:2] != depth.shape or color.shape[2:] != (3,):
            raise ValueError("color must be (H, W, 3) matching depth (H, W)")
        raster = cls.__new__(cls)
        raster.height, raster.width = depth.shape
        raster.color = color
        raster.depth = depth
        raster._arena = None
        raster.depth.fill(np.inf)
        raster.color[:] = np.asarray(background, dtype=np.uint8)
        raster.triangles_drawn = 0
        return raster

    def image(self) -> np.ndarray:
        """The current framebuffer (H, W, 3) uint8.

        For an arena-backed rasterizer this is the live (borrowed)
        buffer; callers that keep the frame past the rasterizer's life
        must pair it with ``close(keep_image=True)``, which adopts the
        buffer out of the arena instead of recycling it.
        """
        return self.color

    def depth_image(self, dtype=np.float32) -> np.ndarray:
        """The z-buffer (H, W); ``inf`` where nothing was drawn.

        Returns the live float64 buffer when `dtype` matches, otherwise
        a converted copy — the sort-last compositor exchanges float32
        depths to halve compositing traffic.
        """
        dtype = np.dtype(dtype)
        if dtype == self.depth.dtype:
            return self.depth
        return self.depth.astype(dtype)

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
        v0 = vertices[faces[:, 0]]
        v1 = vertices[faces[:, 1]]
        v2 = vertices[faces[:, 2]]
        n = np.cross(v1 - v0, v2 - v0)
        norms = np.linalg.norm(n, axis=1)
        norms[norms == 0] = 1.0
        n /= norms[:, None]
        light = np.asarray(light_direction, dtype=float)
        light = light / np.linalg.norm(light)
        intensity = ambient + (1.0 - ambient) * np.abs(n @ light)

        if config.enabled():
            drawn = self._raster_batched(
                screen[faces], vertex_colors[faces].astype(float), intensity
            )
        else:
            drawn = 0
            for f in range(len(faces)):
                if self._raster_triangle(
                    screen[faces[f]], vertex_colors[faces[f]].astype(float),
                    intensity[f],
                ):
                    drawn += 1
        self.triangles_drawn += drawn
        return drawn

    # -- batched fill --------------------------------------------------
    def _raster_batched(
        self, tris: np.ndarray, colors: np.ndarray, intensity: np.ndarray
    ) -> int:
        """Fill (F, 3, 3) screen-space triangles in submission order.

        Replays the per-triangle loop's z-buffer exactly: a candidate
        pixel passes iff its z beats the depth buffer *and* every
        earlier candidate at that pixel (strict ``<``), which is what
        the sequential loop's read-modify-write sequence computes.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._raster_batched_impl(tris, colors, intensity)

    def _raster_batched_impl(self, tris, colors, intensity) -> int:
        width, height = self.width, self.height
        # cull exactly what _raster_triangle rejects up front
        ok = np.isfinite(tris).all(axis=(1, 2)) & (tris[:, :, 2] > 0).all(axis=1)
        fidx = np.flatnonzero(ok)
        if fidx.size == 0:
            return 0
        t = tris[fidx]
        ax, ay = t[:, 0, 0], t[:, 0, 1]
        bx, by = t[:, 1, 0], t[:, 1, 1]
        cx, cy = t[:, 2, 0], t[:, 2, 1]
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        keep = np.abs(area) >= 1e-12
        # clipped integer bounding boxes (clamp in float first so huge
        # finite coordinates cannot overflow the int cast; out-of-range
        # boxes collapse to empty exactly as max/min clamping does)
        xs, ys = t[:, :, 0], t[:, :, 1]
        x0 = np.clip(np.floor(xs.min(axis=1)), 0, width).astype(np.int64)
        x1 = np.clip(np.ceil(xs.max(axis=1)) + 1.0, 0, width).astype(np.int64)
        y0 = np.clip(np.floor(ys.min(axis=1)), 0, height).astype(np.int64)
        y1 = np.clip(np.ceil(ys.max(axis=1)) + 1.0, 0, height).astype(np.int64)
        bw, bh = x1 - x0, y1 - y0
        keep &= (bw > 0) & (bh > 0)
        if not keep.any():
            return 0
        sel = np.flatnonzero(keep)
        t, area = t[sel], area[sel]
        ax, ay, bx, by, cx, cy = ax[sel], ay[sel], bx[sel], by[sel], cx[sel], cy[sel]
        x0, y0, bw, bh = x0[sel], y0[sel], bw[sel], bh[sel]
        colors = colors[fidx[sel]]
        intensity = intensity[fidx[sel]]
        counts = bw * bh

        drawn = 0
        start = 0
        nf = len(t)
        while start < nf:
            end = start + 1
            total = int(counts[start])
            while end < nf and total + counts[end] <= _CHUNK_PIXELS:
                total += int(counts[end])
                end += 1
            s = slice(start, end)
            drawn += self._raster_chunk(
                (ax[s], ay[s], bx[s], by[s], cx[s], cy[s]),
                t[s, :, 2], area[s], x0[s], y0[s], bw[s], counts[s],
                colors[s], intensity[s],
            )
            start = end
        return drawn

    def _raster_chunk(
        self, corners, zvert, area, x0, y0, bw, counts, colors, intensity
    ) -> int:
        """One batched pass; returns triangles drawn in this chunk."""
        ax, ay, bx, by, cx, cy = corners
        n = len(area)
        reps = counts
        tot = int(reps.sum())
        tri_id = np.repeat(np.arange(n), reps)
        starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
        local = np.arange(tot) - np.repeat(starts, reps)
        wrep = np.repeat(bw, reps)
        col = np.repeat(x0, reps) + local % wrep
        row = np.repeat(y0, reps) + local // wrep
        # identical formulas to _raster_triangle, gathered per candidate
        px = col + 0.5
        py = row + 0.5
        a = area[tri_id]
        w0 = ((bx[tri_id] - px) * (cy[tri_id] - py)
              - (by[tri_id] - py) * (cx[tri_id] - px)) / a
        w1 = ((cx[tri_id] - px) * (ay[tri_id] - py)
              - (cy[tri_id] - py) * (ax[tri_id] - px)) / a
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            return 0
        tri_id, col, row = tri_id[inside], col[inside], row[inside]
        w0, w1, w2 = w0[inside], w1[inside], w2[inside]
        z = (w0 * zvert[tri_id, 0] + w1 * zvert[tri_id, 1]
             + w2 * zvert[tri_id, 2])

        # group candidates by pixel; the stable sort keeps submission
        # order inside each group
        pix = row * self.width + col
        order = np.argsort(pix, kind="stable")
        pixs, zs, tids = pix[order], z[order], tri_id[order]
        w0, w1, w2 = w0[order], w1[order], w2[order]
        m = len(pixs)
        seg = np.empty(m, dtype=bool)
        seg[0] = True
        seg[1:] = pixs[1:] != pixs[:-1]
        pos = np.arange(m)
        segpos = np.maximum.accumulate(np.where(seg, pos, 0))

        # a candidate passes iff z < min(buffer depth, all earlier
        # candidates' z at the pixel): failing candidates never lower
        # the buffer, so the all-candidates prefix min gives the same
        # strict comparison as the sequential passing-only min.
        depth_flat = self.depth.reshape(-1)
        seed = depth_flat[pixs]
        q = zs.copy()  # in-segment inclusive prefix min (doubling scan)
        d = 1
        while d < m:
            idx = np.flatnonzero(pos - segpos >= d)
            if idx.size == 0:
                break
            q[idx] = np.minimum(q[idx], q[idx - d])
            d *= 2
        prev = seed.copy()
        np.minimum(prev[1:], np.where(seg[1:], np.inf, q[:-1]), out=prev[1:])
        passes = zs < prev

        flags = np.zeros(n, dtype=bool)
        flags[tids[passes]] = True
        if not passes.any():
            return 0
        # final owner of a pixel = last passing candidate (the running
        # strict minimum makes passing z strictly decreasing)
        winner = np.maximum.reduceat(np.where(passes, pos, -1), np.flatnonzero(seg))
        winner = winner[winner >= 0]
        pixw = pixs[winner]
        depth_flat[pixw] = zs[winner]
        f = tids[winner]
        rgb = (
            w0[winner, None] * colors[f, 0]
            + w1[winner, None] * colors[f, 1]
            + w2[winner, None] * colors[f, 2]
        ) * intensity[f][:, None]
        np.clip(rgb, 0.0, 255.0, out=rgb)
        self.color.reshape(-1, 3)[pixw] = rgb.astype(np.uint8)
        return int(flags.sum())

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


class DeviceRasterizer:
    """Device twin of :class:`Rasterizer`: framebuffers stay on device.

    Color and depth buffers come from the device scratch arena
    (``Device.arena``) and every draw is a
    registered-kernel launch over the raw device buffers — the same
    per-pixel math as the host rasterizer, so the composited image is
    bitwise identical; only the residency of the working set changes.
    ``close`` recycles the buffers; nothing here touches the transfer
    ledger.
    """

    def __init__(
        self,
        device,
        width: int,
        height: int,
        background: tuple[int, int, int] = (18, 22, 30),
    ):
        from repro.occa.kernels import install_render_kernels

        self.device = device
        self.width = width
        self.height = height
        self._kernels = install_render_kernels(device)
        arena = device.arena
        self.color_mem = arena.borrow((height, width, 3), np.uint8)
        self.depth_mem = arena.borrow((height, width), np.float64)
        self._core = Rasterizer.wrap(
            self.color_mem._raw(), self.depth_mem._raw(), background
        )

    @property
    def triangles_drawn(self) -> int:
        return self._core.triangles_drawn

    def draw_mesh(self, camera, vertices, faces, vertex_colors) -> int:
        return self._kernels.raster_mesh(
            self._core, camera, vertices, faces, vertex_colors
        )

    def shade_draw(self, camera, vertices, faces, values, vmin, vmax,
                   colormap) -> int:
        """Fused colormap + draw launch (one kernel per contour piece)."""
        return self._kernels.shade_draw(
            self._core, camera, vertices, faces, values, vmin, vmax, colormap
        )

    def image(self) -> np.ndarray:
        """Raw device view of the framebuffer (kernel-side use only)."""
        return self._core.image()

    def depth_image(self, dtype=np.float32) -> np.ndarray:
        return self._core.depth_image(dtype)

    def draw_background_gradient(self, *args, **kwargs) -> None:
        self._kernels.background(
            self.color_mem, self.depth_mem, *args, **kwargs
        )

    def close(self) -> None:
        """Return the device framebuffers to the arena pool."""
        mems, self.color_mem, self.depth_mem = (
            (self.color_mem, self.depth_mem), None, None,
        )
        if mems[0] is not None:
            self.device.arena.release(*mems)


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
    height, width = depth.shape
    t = np.linspace(0.0, 1.0, height)[:, None, None]
    grad = (1 - t) * np.asarray(top, float) + t * np.asarray(bottom, float)
    untouched = ~np.isfinite(depth)
    color[untouched] = np.broadcast_to(
        grad, (height, width, 3)
    )[untouched].astype(np.uint8)
