"""Z-buffered triangle rasterizer with Gouraud shading.

A deliberately small software renderer: triangles are filled with
barycentric interpolation at the pixel centres they cover, depth
tested against a z-buffer, and shaded with a Lambertian term from a
single directional light — the same balance the paper's Catalyst
endpoint targets (rendering well under solver-step cost).

Two fill paths share the exact same per-pixel math:

- the *batched* default works through the faces in fixed-size chunks
  of `_CHUNK_FACES`, in submission order, so its working set does not
  grow with the surface.  Per chunk it culls, and tests only the pixels
  whose centre lies in a triangle's extent widened by ``_GUARD`` (a
  third of the bounding-box pixels on a marching-tetrahedra surface;
  triangles holding no centre are never expanded), as one flat array of
  candidates — one per box pixel, gathered with ``take`` and evaluated
  in place — in passes of about `_CHUNK_PIXELS`; it orders the
  survivors of the inside test with one sort on ``pixel * n +
  submission index`` and resolves the z-buffer with a grouped
  prefix-minimum scan.  Only the vertex projection and the faces'
  shading intensities are whole-mesh arrays: they hold the two BLAS
  products, whose rounding may depend on their shape;
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

#: faces set up and filled per chunk, in submission order, and
#: candidate pixels resolved per batched pass inside a chunk (plus at
#: most one triangle's); both split on triangle boundaries, so chunking
#: cannot change the sequential z-buffer semantics, only bound the
#: per-face and per-candidate arrays however large the surface
_CHUNK_FACES = 1 << 12
_CHUNK_PIXELS = 1 << 16

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
        light = np.asarray(light_direction, dtype=float)
        light = light / np.linalg.norm(light)
        # ambient + (1 - ambient) |n . light|, in place; the product
        # keeps its whole-mesh shape (a BLAS call's rounding may depend
        # on it, as the projection's may), the normals come in chunks
        intensity = _unit_normals(vertices, faces) @ light
        np.abs(intensity, out=intensity)
        intensity *= 1.0 - ambient
        intensity += ambient

        if config.enabled():
            vok = np.isfinite(screen).all(axis=1) & (screen[:, 2] > 0)
            drawn = sum(
                self._raster_faces(screen, vok, faces, lo, vertex_colors, intensity)
                for lo in range(0, len(faces), _CHUNK_FACES)
            )
        else:
            drawn = sum(
                self._raster_triangle(screen[f], vertex_colors[f].astype(float), i)
                for f, i in zip(faces, intensity)
            )
        self.triangles_drawn += drawn
        return drawn

    # -- batched fill --------------------------------------------------
    def _raster_faces(
        self, screen: np.ndarray, vok: np.ndarray, faces: np.ndarray, lo: int,
        vertex_colors: np.ndarray, intensity: np.ndarray,
    ) -> int:
        """Fill the `_CHUNK_FACES` faces from `lo` over projected `screen`
        vertices (`vok`: finite and in front of the camera), in
        submission order, in passes of about `_CHUNK_PIXELS` candidates.

        Replays the per-triangle loop's z-buffer exactly: a candidate
        pixel passes iff its z beats the depth buffer *and* every
        earlier candidate at that pixel (strict ``<``), which is what
        the sequential loop's read-modify-write sequence computes.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tri, count, geom, tail = _boxes(
                screen, vok, faces[lo:lo + _CHUNK_FACES], self.width, self.height
            )
            window = geom[10] // _CHUNK_PIXELS
            cuts = np.flatnonzero(np.diff(window, prepend=-1, append=-1)).tolist()
            return sum(
                self._fill(
                    tri[a:b] + lo, count[a:b], geom[:, a:b], [g[a:b] for g in tail],
                    faces, vertex_colors, intensity,
                ) for a, b in zip(cuts[:-1], cuts[1:])
            )

    def _fill(self, tri, count, geom, tail, faces, vertex_colors, intensity) -> int:
        """Resolve faces `tri` (submission order; `count`, `geom`, `tail`
        as :func:`_boxes` returns them) against the z-buffer."""
        self.candidates_tested += int(count.sum())
        sub, row, col, w0, w1, w2 = _inside(geom, count)
        if sub.size == 0:
            return 0
        za, zb, zc, pix0 = (g[sub] for g in tail)
        pix = pix0 + (row * self.width + col).astype(np.int64)
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
        colors = np.take(vertex_colors, faces[f], axis=0)
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


def _unit_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """(F, 3) world-space unit face normals (zero for degenerate faces),
    computed `_CHUNK_FACES` rows at a time."""
    n = np.empty((len(faces), 3))
    for lo in range(0, len(faces), _CHUNK_FACES):
        v0, v1, v2 = np.take(vertices, faces[lo:lo + _CHUNK_FACES].T, axis=0)
        cross = np.cross(v1 - v0, v2 - v0)
        norms = np.linalg.norm(cross, axis=1)
        norms[norms == 0] = 1.0
        np.divide(cross, norms[:, None], out=n[lo:lo + len(cross)])
    return n


def _boxes(screen, vok, faces, width, height):
    """Cull `faces` and size the candidate box of each face kept.

    Returns the kept faces' indices into `faces`, their boxes' pixel
    counts, an ``(11, n)`` float table — the inside test's operands
    ``ax bx cx ay by cy area``, the centre of the box's first pixel,
    the box width, the index of its first candidate — and the kept
    faces' corner depths and first pixel's framebuffer index.

    Candidates come from the tight pixel-centre box, or the loop's full
    box for ill-conditioned triangles (module docstring).
    """
    corner = faces.T
    size = np.array([[width], [height]])
    xs, ys, zs = np.take(screen.T, corner, axis=1)
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
    # cull exactly what _raster_triangle rejects up front (a non-finite
    # corner poisons the arithmetic above, not `sel`)
    sel = np.flatnonzero(
        vok[corner].all(axis=0) & (np.abs(area) >= 1e-12) & (bw > 0) & (bh > 0)
    )
    count = (bw * bh)[sel]
    geom = np.stack([ax, bx, cx, ay, by, cy, area, x0 + 0.5, y0 + 0.5, bw])
    geom = np.vstack([geom.take(sel, axis=1), np.cumsum(count) - count])
    return sel, count, geom, [g[sel] for g in (*zs, y0 * width + x0)]


def _inside(geom, count):
    """The candidates of one pass that pass the inside test: their face
    (index into `count`), box row and column, and barycentric weights.

    One flat candidate per box pixel, row-major inside each box,
    evaluated in place with the same expressions as
    ``Rasterizer._raster_triangle``; pixel indices and centres are whole
    or half numbers far below 2**53, so they come out exact in float.
    """
    t = np.repeat(np.arange(len(count)), count)
    ax, bx, cx, ay, by, cy, area, px, py, bw, col = geom.take(t, axis=1)
    row = np.arange(geom[10, 0], geom[10, 0] + len(t), dtype=float)
    np.subtract(row, col, out=col)      # index inside the box
    np.divide(col, bw, out=row)
    np.floor(row, out=row)              # row = index // width
    bw *= row
    col -= bw                           # col = index - row * width
    px += col
    py += row
    # term by term into the gathered rows (products commute exactly):
    # w0 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / area
    # w1 = ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / area
    cx -= px
    cy -= py
    bx -= px
    bx *= cy
    by -= py
    by *= cx
    w0 = bx
    w0 -= by
    w0 /= area
    ay -= py
    ay *= cx
    ax -= px
    ax *= cy
    w1 = ay
    w1 -= ax
    w1 /= area
    w2 = np.subtract(1.0, w0, out=by)
    w2 -= w1
    inside = w0 >= 0
    inside &= w1 >= 0
    inside &= w2 >= 0
    hit = np.flatnonzero(inside)
    return t[hit], row[hit], col[hit], w0[hit], w1[hit], w2[hit]
