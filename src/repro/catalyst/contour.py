"""Isosurface extraction via marching tetrahedra.

Each cube of the volume lattice splits into six tetrahedra; a
tetrahedron crossed by the isovalue yields one or two triangles with
vertices linearly interpolated along its edges.  Marching tetrahedra
trades slightly more triangles than marching cubes for a tiny,
unambiguous case table — the right call for a from-scratch renderer.

The volume is indexed ``[k, j, i]`` (z slowest) like all grid data in
this stack; world coordinates come from origin/spacing.

Two extraction paths share the exact same per-vertex math:

- the *batched* default reads each cube's 8-bit corner mask off the
  whole lattice (in the pass that finds the candidate cubes), sizes its
  outputs from per-mask vertex and triangle counts, then expands the
  crossed tetrahedra `_CHUNK_CUBES` cubes at a time through static
  tables keyed by ``tet * 16 + case`` (crossing edges in first-use
  order, local face indices), gathering corner values, positions and
  aux with flat ``take`` on ``cube * 8 + corner`` indices and prefix
  sums for the vertex offsets — a handful of vectorized passes per
  chunk instead of a Python loop per cube, tetrahedron and edge, in a
  working set one chunk wide;
- the original per-cube loop is kept as the reference
  (``repro.perf.naive_mode``); the two are bit-for-bit identical —
  same dtypes, same values, and the same *order*: cubes in
  ``np.nonzero`` (C) order, tetrahedra 0..5 within a cube, triangles
  in ``_CASES`` order within a tetrahedron, and one vertex per crossed
  edge *per tetrahedron* (never shared across tetrahedra), numbered by
  first use.  Faces index that vertex order, so the sort-last
  compositor's fragment concatenation and the rasterizer's
  submission-order z-buffer see the very same mesh.
"""

from __future__ import annotations

import numpy as np

from repro.perf import config

# Six tetrahedra per cube, as indices into the cube's 8 corners
# (corner order: bit 0 = x, bit 1 = y, bit 2 = z).
_TETS = np.array(
    [
        [0, 1, 3, 7],
        [0, 1, 7, 5],
        [0, 5, 7, 4],
        [0, 3, 2, 7],
        [0, 2, 6, 7],
        [0, 6, 4, 7],
    ],
    dtype=np.int64,
)

_CORNER_OFFSETS = np.array(
    [[(c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1] for c in range(8)], dtype=np.int64
)  # (8, 3) in (i, j, k) order

# Edges of a tetrahedron as vertex-index pairs
_TET_EDGES = np.array(
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.int64
)

# For each of the 16 inside/outside sign cases, the edges (by index
# into _TET_EDGES) forming the crossing triangles.  Case key: bit v set
# when vertex v is above the isovalue.
_CASES: dict[int, list[tuple[int, int, int]]] = {
    0b0000: [],
    0b1111: [],
    0b0001: [(0, 1, 2)],
    0b1110: [(0, 2, 1)],
    0b0010: [(0, 3, 4)],
    0b1101: [(0, 4, 3)],
    0b0100: [(1, 5, 3)],
    0b1011: [(1, 3, 5)],
    0b1000: [(2, 4, 5)],
    0b0111: [(2, 5, 4)],
    0b0011: [(1, 2, 3), (3, 2, 4)],
    0b1100: [(1, 3, 2), (3, 4, 2)],
    # v0,v2 above: the crossing quad is edges 0 (0-1), 3 (1-2),
    # 5 (2-3), 2 (3-0); triangulated along the 0-5 diagonal
    0b0101: [(0, 3, 5), (0, 5, 2)],
    0b1010: [(0, 5, 3), (0, 2, 5)],
    0b0110: [(0, 1, 5), (0, 5, 4)],
    0b1001: [(0, 5, 1), (0, 4, 5)],
}


def _build_case_tables() -> tuple[np.ndarray, ...]:
    """Flatten ``_CASES`` into lookup tables for the batched path.

    Keyed by ``tet * 16 + case``: the unique crossing edges in
    first-use order (the order the reference creates their vertices
    in) as cube-corner pairs, one row per ``key * 4 + slot``; how many
    there are; the triangles as local slots into that vertex list, one
    row per ``key * 2 + triangle``; and how many of those there are.
    Last, the key of each of the 6 tetrahedra for each of the 256
    above-isovalue masks of a cube's corners (bit c: corner c).
    """
    edges = np.zeros((16, 4), dtype=np.int64)
    nverts = np.zeros(16, dtype=np.int64)
    faces = np.zeros((16, 2, 3), dtype=np.int64)
    ntris = np.zeros(16, dtype=np.int64)
    for case, tris in _CASES.items():
        order: list[int] = []
        for t, tri in enumerate(tris):
            for c, e in enumerate(tri):
                if e not in order:
                    order.append(e)
                faces[case, t, c] = order.index(e)
        edges[case, : len(order)] = order
        nverts[case] = len(order)
        ntris[case] = len(tris)
    # (6 tets, 16 cases, 4 slots, 2 ends) -> cube corner 0..7
    ends = _TETS[:, _TET_EDGES[edges]].reshape(-1, 2)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    keys = (bits[:, _TETS] << np.arange(4)).sum(axis=2) + np.arange(6) * 16
    return (
        ends, np.tile(nverts, 6), np.tile(faces.reshape(-1, 3), (6, 1)),
        np.tile(ntris, 6), keys,
    )


_KEY_ENDS, _KEY_NVERTS, _KEY_FACES, _KEY_NTRIS, _MASK_KEYS = _build_case_tables()
#: vertices and triangles a cube of each corner mask emits
_MASK_NVERTS = _KEY_NVERTS[_MASK_KEYS].sum(axis=1)
_MASK_NTRIS = _KEY_NTRIS[_MASK_KEYS].sum(axis=1)

#: active cubes expanded per batched pass; chunks split on cube
#: boundaries in ``np.nonzero`` order, so chunking cannot change the
#: emission order, only bound the working set whatever the volume
_CHUNK_CUBES = 1 << 9


def _empty_surface() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.zeros((0, 3)), np.zeros((0, 3), np.int64), np.zeros(0)


def marching_tetrahedra(
    volume: np.ndarray,
    isovalue: float,
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    aux: np.ndarray | None = None,
    index_offset: tuple[int, int, int] = (0, 0, 0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the isosurface of `volume` at `isovalue`.

    Returns ``(vertices (V, 3), faces (F, 3), values (V,))`` where
    `values` interpolates `aux` (or the volume itself) onto the surface
    — used to pseudocolor an isosurface of one field by another.

    `index_offset` (i, j, k) places the volume at a lattice offset of a
    larger global grid: vertex positions are computed as
    ``origin + (local_index + index_offset) * spacing``, so a fragment
    of a global volume yields *bitwise identical* vertex coordinates to
    contouring the whole — integer lattice indices add exactly, whereas
    pre-shifting the origin by ``index_offset * spacing`` would round
    differently.  The sort-last compositor depends on this.
    """
    vol = np.asarray(volume, dtype=float)
    if vol.ndim != 3:
        raise ValueError(f"volume must be 3-D, got {vol.ndim}-D")
    aux_vol = vol if aux is None else np.asarray(aux, dtype=float)
    if aux_vol.shape != vol.shape:
        raise ValueError("aux volume must match the scalar volume shape")
    nz, ny, nx = vol.shape
    if min(nx, ny, nz) < 2:
        return _empty_surface()

    # each cube's corner mask (bit c: corner c above the isovalue);
    # candidates are the cubes whose corners are not all on one side
    mask = np.zeros((nz - 1, ny - 1, nx - 1), dtype=np.uint8)
    for c, corner in enumerate(_corners(vol > isovalue)):
        mask |= corner.view(np.uint8) << np.uint8(c)
    cubes = np.nonzero((mask != 0) & (mask != 255))  # (ks, js, is)

    args = (
        vol,
        aux_vol,
        isovalue,
        np.asarray(origin, dtype=float),
        np.asarray(spacing, dtype=float),
        np.asarray(index_offset, dtype=np.int64),
        cubes,
    )
    if config.enabled():
        return _extract_batched(*args, mask[cubes])
    return _extract_reference(*args)


def _corners(lattice: np.ndarray):
    """The 8 views of `lattice` that put each cube's corner c at the
    cube's own index, in corner order."""
    nz, ny, nx = lattice.shape
    for di, dj, dk in _CORNER_OFFSETS:
        yield lattice[dk : dk + nz - 1, dj : dj + ny - 1, di : di + nx - 1]


def _extract_batched(vol, aux_vol, isovalue, org, sp, offset, cubes, masks):
    """Expand the candidate cubes (corner `masks`), `_CHUNK_CUBES` at a
    time, into outputs sized up front from the masks.

    Emits exactly what :func:`_extract_reference` appends, in the same
    order, from the same elementwise expressions — only evaluated on
    arrays of every crossed edge instead of one scalar at a time.
    """
    blank = ~np.isfinite(vol)
    if blank.any():
        # blanked (NaN) region: no surface through these cubes
        touched = np.zeros([n - 1 for n in vol.shape], dtype=bool)
        for corner in _corners(blank):
            touched |= corner
        keep = ~touched[cubes]
        cubes, masks = tuple(c[keep] for c in cubes), masks[keep]
    if len(masks) == 0:
        return _empty_surface()
    vend = np.cumsum(_MASK_NVERTS[masks])
    fend = np.cumsum(_MASK_NTRIS[masks])
    verts = np.empty((vend[-1], 3))
    vals = np.empty(vend[-1])
    faces = np.empty((fend[-1], 3), dtype=np.int64)

    ny, nx = vol.shape[1:]
    flat_vol = vol.reshape(-1)
    flat_aux = flat_vol if aux_vol is vol else aux_vol.reshape(-1)
    ks, js, is_ = cubes
    corner_flat = (
        _CORNER_OFFSETS[:, 2] * ny + _CORNER_OFFSETS[:, 1]
    ) * nx + _CORNER_OFFSETS[:, 0]
    for lo in range(0, len(masks), _CHUNK_CUBES):
        hi = lo + _CHUNK_CUBES
        v0 = vend[lo - 1] if lo else 0
        f0 = fend[lo - 1] if lo else 0
        cube = (ks[lo:hi] * ny + js[lo:hi]) * nx + is_[lo:hi]
        cidx = cube[:, None] + corner_flat  # (C, 8) flat corners
        cv = flat_vol.take(cidx)
        key = _MASK_KEYS[masks[lo:hi]].reshape(-1)  # (C * 6) per-tet case keys
        crossed = np.flatnonzero(_KEY_NVERTS[key])  # cube * 6 + tet
        key = key[crossed]
        nv = _KEY_NVERTS[key]
        first = np.cumsum(nv) - nv  # chunk-local index of each tet's vertex 0

        # one row per crossed edge, in (cube, tet, first-use) order; its
        # two ends as flat (cube * 8 + corner) indices
        owner = np.repeat(np.arange(len(crossed)), nv)
        slot = np.arange(len(owner)) - first[owner]
        ends = _KEY_ENDS.take(key[owner] * 4 + slot, axis=0)
        ends += (crossed[owner] // 6 * 8)[:, None]
        a, b = ends.T
        va, vb = cv.take(a), cv.take(b)
        denom = vb - va
        flat = denom == 0  # the reference's guard, kept term for term
        t = np.clip((isovalue - va) / np.where(flat, 1.0, denom), 0.0, 1.0)
        t[flat] = 0.5
        s = 1 - t
        ijk = np.stack([is_[lo:hi], js[lo:hi], ks[lo:hi]], axis=1) + offset
        cpos = (org + (ijk[:, None, :] + _CORNER_OFFSETS) * sp).reshape(-1, 3)
        out = verts[v0:v0 + len(t)]
        np.multiply(cpos.take(a, axis=0), s[:, None], out=out)
        out += cpos.take(b, axis=0) * t[:, None]
        ca = cv if flat_aux is flat_vol else flat_aux.take(cidx)
        out = vals[v0:v0 + len(t)]
        np.multiply(ca.take(a), s, out=out)
        out += ca.take(b) * t

        nt = _KEY_NTRIS[key]
        owner = np.repeat(np.arange(len(crossed)), nt)
        slot = np.arange(len(owner)) - (np.cumsum(nt) - nt)[owner]
        np.add(
            _KEY_FACES.take(key[owner] * 2 + slot, axis=0),
            (v0 + first[owner])[:, None],
            out=faces[f0:f0 + len(owner)],
        )
    return verts, faces, vals


def _extract_reference(vol, aux_vol, isovalue, org, sp, offset, cubes):
    """The original per-cube loop (``repro.perf.naive_mode``)."""
    verts: list[np.ndarray] = []
    vals: list[float] = []
    faces: list[tuple[int, int, int]] = []

    for k, j, i in zip(*cubes):
        corner_idx = np.array([i, j, k]) + _CORNER_OFFSETS  # (8, 3) (i,j,k)
        cv = vol[corner_idx[:, 2], corner_idx[:, 1], corner_idx[:, 0]]
        if not np.isfinite(cv).all():
            # blanked (NaN) region: no surface through this cube
            continue
        ca = aux_vol[corner_idx[:, 2], corner_idx[:, 1], corner_idx[:, 0]]
        cpos = org + (corner_idx + offset) * sp
        for tet in _TETS:
            case = 0
            for v in range(4):
                if cv[tet[v]] > isovalue:
                    case |= 1 << v
            tris = _CASES[case]
            if not tris:
                continue
            # interpolated crossing point per tet edge (lazy per edge)
            edge_pts: dict[int, int] = {}

            def edge_vertex(eidx: int) -> int:
                cached = edge_pts.get(eidx)
                if cached is not None:
                    return cached
                a, b = _TET_EDGES[eidx]
                va, vb = cv[tet[a]], cv[tet[b]]
                denom = vb - va
                t = 0.5 if denom == 0 else np.clip((isovalue - va) / denom, 0.0, 1.0)
                p = cpos[tet[a]] * (1 - t) + cpos[tet[b]] * t
                val = ca[tet[a]] * (1 - t) + ca[tet[b]] * t
                verts.append(p)
                vals.append(float(val))
                idx = len(verts) - 1
                edge_pts[eidx] = idx
                return idx

            for tri in tris:
                faces.append(tuple(edge_vertex(e) for e in tri))

    if not verts:
        return _empty_surface()
    return (
        np.asarray(verts),
        np.asarray(faces, dtype=np.int64),
        np.asarray(vals),
    )
