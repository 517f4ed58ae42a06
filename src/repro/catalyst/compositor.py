"""Sort-last parallel rendering: depth compositing of rank framebuffers.

The gather-to-root render path ships the *entire* global volume to rank
0 every step — O(N · fragment) traffic into one endpoint, exactly the
serial bottleneck production in situ renderers avoid with sort-last
compositing (ISAAC; the paper's Catalyst endpoint at 1120 ranks).
Here every rank rasterizes only its own volume fragments into an RGB +
depth framebuffer and the group merges those by depth:

- :func:`composite_binary_swap` — the classic power-of-two scheme:
  log2(N) pairwise rounds, each exchanging *half* of the remaining
  image region, leaving each rank with a fully composited 1/N of the
  image; total per-rank traffic ~2·(N−1)/N of one framebuffer.
- :func:`composite_direct_send` — the ragged-size fallback: each rank
  owns an H/N row strip and receives the other N−1 partial strips
  directly.
- :func:`composite` — dispatcher (``binary_swap`` auto-falls back to
  direct-send for non-power-of-two groups); after the merge rounds the
  root collects the N strips, ~one framebuffer of ingress — still
  independent of volume size.
- :func:`gather_composite` — the allgather-based reference the parity
  suite checks the network schemes against bit for bit; also the
  ``naive_mode()`` path.

Pixels are merged by lexicographic ``(depth, owner_rank)`` minimum —
associative and commutative, so any composition order yields the same
image.

:func:`render_composited` runs a :class:`RenderPipeline` spec list
distributed: contours are extracted per fragment against *global* grid
indices (``marching_tetrahedra(index_offset=...)`` keeps vertex
coordinates bitwise identical to contouring the assembled volume),
after a one-``alltoall`` ghost-layer exchange that extends each
fragment by the +x/+y/+z neighbor planes (fragments tile the lattice
disjointly, so without ghosts the inter-fragment cell layer would be
lost).  Colormap and annotation ranges are min/max allreduces of local
extrema — bitwise equal to the global scan.  Slices gather only the
two contributing lattice planes to the root.  For opaque surfaces the
result is pixel-identical to the gather-to-root reference.

Everything here works on NumPy arrays and borrows its scratch —
ghost-extended volumes, framebuffers, owner buffers, slice planes —
from the one `arena` argument.  Where those arrays live is the
caller's business: handed raw views of device buffers and a device's
``raw_view()``, the same code renders in device memory.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.catalyst.camera import Camera
from repro.catalyst.colormaps import apply_colormap
from repro.catalyst.contour import marching_tetrahedra
from repro.catalyst.pipeline import (
    RenderPipeline,
    _resize_nearest,
    draw_annotations,
)
from repro.catalyst.rasterizer import Rasterizer, apply_background_gradient
from repro.catalyst.slicefilter import slice_plan
from repro.catalyst.threshold import threshold_by
from repro.observe import get_telemetry
from repro.parallel.comm import Communicator, ReduceOp
from repro.perf import config as perf_config
from repro.perf.arena import get_arena

__all__ = [
    "composite",
    "composite_binary_swap",
    "composite_direct_send",
    "exchange_ghost_layers",
    "gather_composite",
    "render_composited",
]

#: reserved mailbox tag for compositing traffic (negative = internal,
#: see repro.parallel.thread_comm)
_TAG_COMPOSITE = -106

#: the seven positive-neighbor directions a fragment needs ghost data
#: from: faces, edges, and the corner, in (x, y, z) unit steps
_GHOST_DIRS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, 1, 1),
)


# -- transport ----------------------------------------------------------

def _xfer_put(comm: Communicator, obj, dest: int) -> None:
    put = getattr(comm, "_put", None)
    if put is not None:
        put(obj, dest, _TAG_COMPOSITE)
    else:  # pragma: no cover - non-thread communicators
        comm.send(obj, dest, _TAG_COMPOSITE)


def _xfer_take(comm: Communicator, source: int):
    take = getattr(comm, "_take", None)
    if take is not None:
        return take(source, _TAG_COMPOSITE)
    return comm.recv(source, _TAG_COMPOSITE)  # pragma: no cover


def _record_ingress(comm: Communicator, *arrays: np.ndarray) -> None:
    comm.meter.record(
        "composite",
        sum(a.nbytes for a in arrays),
        comm.size,
        comm.channel,
        rank=comm.rank,
    )


# -- pixel merge --------------------------------------------------------

def _merge(color_a, depth_a, owner_a, color_b, depth_b, owner_b) -> None:
    """Merge framebuffer B into A by lexicographic (depth, owner) min."""
    if depth_a.size == 0:
        return
    sel = (depth_b < depth_a) | ((depth_b == depth_a) & (owner_b < owner_a))
    color_a[sel] = color_b[sel]
    depth_a[sel] = depth_b[sel]
    owner_a[sel] = owner_b[sel]


def gather_composite(
    comm: Communicator, color: np.ndarray, depth: np.ndarray, root: int = 0
):
    """Reference compositor: gather every framebuffer, merge at root.

    O(N) framebuffers of ingress at the root; kept as the bit-for-bit
    semantic reference for the network schemes (processing in rank
    order with a strict ``<`` equals the (depth, owner) tie-break).
    """
    gathered = comm.gather((color, depth), root)
    if gathered is None:
        return None
    c0, d0 = gathered[0]
    out_color = np.array(c0)
    out_depth = np.array(d0)
    for c, d in gathered[1:]:
        sel = d < out_depth
        out_color[sel] = c[sel]
        out_depth[sel] = d[sel]
    return out_color, out_depth


def _collect_regions(
    comm: Communicator,
    region: tuple[int, int],
    color: np.ndarray,
    depth: np.ndarray,
    root: int,
):
    """Gather each rank's composited row region onto fresh root buffers.

    The root copies into *new* arrays rather than its own framebuffer:
    peers may still be reading regions the root sent in earlier rounds,
    so the root's buffers must stay immutable outside its kept region
    until the closing barrier.
    """
    lo, hi = region
    if comm.rank == root:
        out_color = np.empty_like(color)
        out_depth = np.empty_like(depth)
        out_color[lo:hi] = color[lo:hi]
        out_depth[lo:hi] = depth[lo:hi]
        for r in range(comm.size):
            if r == root:
                continue
            (rlo, rhi), c, d = _xfer_take(comm, r)
            _record_ingress(comm, c, d)
            if rhi > rlo:
                out_color[rlo:rhi] = c
                out_depth[rlo:rhi] = d
        result = (out_color, out_depth)
    else:
        _xfer_put(comm, ((lo, hi), color[lo:hi], depth[lo:hi]), root)
        result = None
    # peers hold views of this rank's buffers until they finish their
    # copies; nobody returns (and possibly recycles a buffer) early
    comm.barrier()
    return result


def composite_binary_swap(
    comm: Communicator, color: np.ndarray, depth: np.ndarray, root: int = 0,
    arena=None,
):
    """Binary-swap depth compositing (communicator size must be 2^k).

    Round i pairs rank with ``rank ^ 2^i``: each sends half of its
    remaining image rows and merges the partner's half into the half it
    keeps, so after log2(N) rounds every rank owns a disjoint, fully
    composited 1/N of the image; the root then collects the regions.

    `arena` supplies the owner-buffer scratch (default: the host
    :func:`get_arena`).
    """
    size, rank = comm.size, comm.rank
    if size & (size - 1):
        raise ValueError(f"binary swap needs a power-of-two group, got {size}")
    height = depth.shape[0]
    if arena is None:
        arena = get_arena()
    owner = arena.borrow(depth.shape, np.int32)
    owner.fill(rank)
    try:
        lo, hi = 0, height
        for i in range(size.bit_length() - 1):
            bit = 1 << i
            partner = rank ^ bit
            mid = (lo + hi) // 2
            if rank & bit:
                keep, send = (mid, hi), (lo, mid)
            else:
                keep, send = (lo, mid), (mid, hi)
            s = slice(send[0], send[1])
            _xfer_put(comm, (send, color[s], depth[s], owner[s]), partner)
            recv_region, c, d, o = _xfer_take(comm, partner)
            _record_ingress(comm, c, d, o)
            assert recv_region == keep, "binary-swap region mismatch"
            k = slice(keep[0], keep[1])
            _merge(color[k], depth[k], owner[k], c, d, o)
            lo, hi = keep
        return _collect_regions(comm, (lo, hi), color, depth, root)
    finally:
        arena.release(owner)


def composite_direct_send(
    comm: Communicator, color: np.ndarray, depth: np.ndarray, root: int = 0,
    arena=None,
):
    """Direct-send depth compositing for arbitrary group sizes.

    Each rank owns rows ``[r*H/N, (r+1)*H/N)``, sends every peer its
    strip, merges the N−1 incoming partial strips, and the root
    collects the finished strips.
    """
    size, rank = comm.size, comm.rank
    height = depth.shape[0]
    bounds = [(r * height // size, (r + 1) * height // size) for r in range(size)]
    if arena is None:
        arena = get_arena()
    owner = arena.borrow(depth.shape, np.int32)
    owner.fill(rank)
    try:
        for shift in range(1, size):
            dest = (rank + shift) % size
            s = slice(bounds[dest][0], bounds[dest][1])
            _xfer_put(comm, (color[s], depth[s], owner[s]), dest)
        lo, hi = bounds[rank]
        k = slice(lo, hi)
        for shift in range(1, size):
            src = (rank - shift) % size
            c, d, o = _xfer_take(comm, src)
            _record_ingress(comm, c, d, o)
            _merge(color[k], depth[k], owner[k], c, d, o)
        return _collect_regions(comm, (lo, hi), color, depth, root)
    finally:
        arena.release(owner)


def composite(
    comm: Communicator,
    color: np.ndarray,
    depth: np.ndarray,
    method: str = "auto",
    root: int = 0,
    arena=None,
):
    """Composite per-rank framebuffers; ``(color, depth)`` on root.

    `method`: ``binary_swap`` (falls back to direct-send when the group
    size is not a power of two), ``direct_send``, or ``auto``.  Under
    ``repro.perf.naive_mode`` everything routes through the
    :func:`gather_composite` reference.  Collective: every rank must
    call with the same method.
    """
    if method not in ("auto", "binary_swap", "direct_send"):
        raise ValueError(f"unknown compositing method {method!r}")
    size = comm.size
    if size == 1:
        return color, depth
    if not perf_config.enabled():
        return gather_composite(comm, color, depth, root)
    pow2 = size & (size - 1) == 0
    with get_telemetry().tracer.span(
        "catalyst.composite", method=method, size=size
    ):
        if method in ("auto", "binary_swap") and pow2:
            return composite_binary_swap(comm, color, depth, root, arena=arena)
        return composite_direct_send(comm, color, depth, root, arena=arena)


# -- ghost-layer exchange ----------------------------------------------

def _fragment_offsets(fragments, global_origin, global_spacing):
    """Integer lattice offset (x, y, z) of each fragment."""
    gorigin = np.asarray(global_origin, dtype=float)
    gspacing = np.asarray(global_spacing, dtype=float)
    return [
        tuple(
            np.rint((np.asarray(origin, dtype=float) - gorigin) / gspacing)
            .astype(int)
        )
        for origin, _dims, _payload in fragments
    ]


def _slab(vol: np.ndarray, direction) -> np.ndarray:
    """Min-side slab of a [z, y, x] volume along +`direction` axes."""
    gx, gy, gz = direction
    return vol[
        slice(0, 1) if gz else slice(None),
        slice(0, 1) if gy else slice(None),
        slice(0, 1) if gx else slice(None),
    ]


def _region(dims, direction):
    """Slices placing a +`direction` ghost slab in an extended volume."""
    dx, dy, dz = dims
    gx, gy, gz = direction
    return (
        slice(dz, dz + 1) if gz else slice(0, dz),
        slice(dy, dy + 1) if gy else slice(0, dy),
        slice(dx, dx + 1) if gx else slice(0, dx),
    )


def exchange_ghost_layers(
    comm: Communicator,
    fragments,
    offsets,
    arrays,
    arena=None,
):
    """Extend each fragment with its +x/+y/+z neighbor ghost layers.

    Fragments tile the global lattice disjointly, so the cell layer
    between two fragments belongs to neither; marching tetrahedra over
    a fragment alone would drop its triangles.  Each rank sends the
    min-side planes/edges/corner of every local fragment to the owners
    of the negative-direction neighbors in one ``alltoall``
    (sender-driven: the *receiving* fragment sees them as +direction
    ghosts), then builds ``(s+1)``-sized extended volumes.  All
    fragments must share one dims (per-element uniform resampling);
    lattice positions with no neighbor (domain boundary) stay NaN,
    which marching tetrahedra skips.

    Returns ``(ext_fragments, scratch)`` where ``ext_fragments`` is a
    list of ``(offset, dims, ext_dims, {name: ext_volume})`` and
    ``scratch`` the arena-borrowed arrays the caller must release.
    """
    # global directory: lattice offset -> owning rank
    local_entries = [(off, i) for i, off in enumerate(offsets)]
    all_entries = comm.allgather(local_entries)
    directory = {
        off: rank
        for rank, entries in enumerate(all_entries)
        for off, _idx in entries
    }

    # sender side: route min-side slabs to negative-neighbor owners
    outgoing: list[list] = [[] for _ in range(comm.size)]
    for (origin, dims, payload), off in zip(fragments, offsets):
        d = np.asarray(dims, dtype=int)
        for direction in _GHOST_DIRS:
            target = tuple(np.asarray(off) - np.asarray(direction) * d)
            owner = directory.get(target)
            if owner is None:
                continue
            outgoing[owner].append(
                (target, direction,
                 {name: _slab(payload[name], direction) for name in arrays})
            )
    incoming = comm.alltoall(outgoing) if comm.size > 1 else outgoing

    # receiver side: build extended volumes
    if arena is None:
        arena = get_arena()
    scratch: list[np.ndarray] = []
    by_offset: dict[tuple, int] = {off: i for i, off in enumerate(offsets)}
    ext_frags = []
    for (origin, dims, payload), off in zip(fragments, offsets):
        d = np.asarray(dims, dtype=int)
        halo = np.array([
            1 if tuple(off + d * np.asarray(e)) in directory else 0
            for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        ])
        ex, ey, ez = d + halo
        vols = {}
        for name in arrays:
            ext = arena.borrow((ez, ey, ex), np.float64)
            scratch.append(ext)
            ext.fill(np.nan)
            ext[0 : d[2], 0 : d[1], 0 : d[0]] = payload[name]
            vols[name] = ext
        ext_frags.append((off, tuple(int(x) for x in d), (ex, ey, ez), vols))

    for row in incoming:
        for target, direction, pieces in row:
            idx = by_offset.get(target)
            if idx is None:
                continue
            _off, dims, _ext_dims, vols = ext_frags[idx]
            reg = _region(dims, direction)
            for name, piece in pieces.items():
                vols[name][reg] = piece
    return ext_frags, scratch


# -- distributed pipeline rendering ------------------------------------

def _global_bounds(global_dims, global_origin, global_spacing) -> np.ndarray:
    dims = np.asarray(global_dims, dtype=float)
    org = np.asarray(global_origin, dtype=float)
    sp = np.asarray(global_spacing, dtype=float)
    return np.stack([org, org + (dims - 1) * sp], axis=1)


def _threshold_band(spec) -> tuple[float, float]:
    lo = spec.threshold_min if spec.threshold_min is not None else -np.inf
    hi = spec.threshold_max if spec.threshold_max is not None else np.inf
    return lo, hi


def _local_extrema(values_iter) -> tuple[float, float]:
    """(nanmin, nanmax) over an iterable of arrays; ±inf when empty."""
    lo, hi = np.inf, -np.inf
    for values in values_iter:
        if values.size == 0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vlo = np.nanmin(values)
            vhi = np.nanmax(values)
        if not np.isnan(vlo):
            lo = min(lo, float(vlo))
            hi = max(hi, float(vhi))
    return lo, hi


def render_composited(
    comm: Communicator,
    pipeline: RenderPipeline,
    fragments,
    global_dims,
    global_origin,
    global_spacing,
    step: int,
    time: float,
    method: str = "binary_swap",
    depth_dtype=np.float32,
    arena=None,
):
    """Distributed :meth:`RenderPipeline.render`: composited at root.

    Every rank contributes its local `fragments` (``(origin, dims,
    {name: volume})`` as produced for the gather path); the root
    returns the same ``[(name, rgb), ...]`` list the serial pipeline
    produces from the assembled volume — pixel-identical for opaque
    surfaces — and every other rank returns ``None``.  Collective: all
    ranks must call with identical pipeline/spec state.

    `arena` lends the ghost-extended volumes, the framebuffers, the
    compositor's owner buffers and the slice planes (default: this
    rank's host arena).  A device-resident caller passes its device's
    ``raw_view()`` together with fragments that are raw views of device
    buffers: the same code then runs in device memory, inter-rank
    ghost/composite traffic is device-to-device (modeled GPUDirect:
    metered on the network channel, never on PCIe), and the returned
    frames are device arrays the caller copies to the host.
    """
    tel = get_telemetry()
    if arena is None:
        arena = get_arena()
    gorigin = tuple(float(x) for x in np.asarray(global_origin, dtype=float))
    gspacing = tuple(float(x) for x in np.asarray(global_spacing, dtype=float))
    gdims = tuple(int(x) for x in global_dims)
    bounds = _global_bounds(gdims, gorigin, gspacing)
    offsets = _fragment_offsets(fragments, gorigin, gspacing)
    contours = [s for s in pipeline.specs if s.kind == "contour"]
    slices = [s for s in pipeline.specs if s.kind == "slice"]

    composited = None
    if contours:
        camera = Camera.fit_bounds(
            bounds,
            direction=pipeline.view_direction,
            width=pipeline.width,
            height=pipeline.height,
        )
        ghost_arrays = sorted({
            name
            for spec in contours
            for name in (
                spec.array,
                (spec.threshold_array or spec.array) if spec.has_threshold
                else spec.array,
                spec.color_array or spec.array,
            )
        })
        with tel.tracer.span("catalyst.ghost_exchange", step=step):
            ext_frags, scratch = exchange_ghost_layers(
                comm, fragments, offsets, ghost_arrays, arena=arena
            )
        raster = Rasterizer(pipeline.width, pipeline.height, arena=arena)
        try:
            with tel.tracer.span("catalyst.render_local", step=step):
                for spec in contours:
                    pieces = []
                    for off, _dims, _ext_dims, vols in ext_frags:
                        vol = vols[spec.array]
                        if spec.has_threshold:
                            selector = vols[spec.threshold_array or spec.array]
                            tlo, thi = _threshold_band(spec)
                            vol = threshold_by(vol, selector, vmin=tlo, vmax=thi)
                        aux = (
                            vols[spec.color_array]
                            if spec.color_array and spec.color_array != spec.array
                            else None
                        )
                        verts, faces, vals = marching_tetrahedra(
                            vol,
                            spec.isovalue,
                            origin=gorigin,
                            spacing=gspacing,
                            aux=aux,
                            index_offset=off,
                        )
                        if len(faces):
                            pieces.append((verts, faces, vals))
                    # global colormap range: min of mins is bitwise the
                    # global nanmin the serial pipeline computes
                    vmin, vmax = spec.vmin, spec.vmax
                    if vmin is None or vmax is None:
                        lo, hi = _local_extrema(p[2] for p in pieces)
                        glo = comm.allreduce(lo, ReduceOp.MIN)
                        ghi = comm.allreduce(hi, ReduceOp.MAX)
                        if vmin is None:
                            vmin = glo if np.isfinite(glo) else None
                        if vmax is None:
                            vmax = ghi if np.isfinite(ghi) else None
                    for verts, faces, vals in pieces:
                        colors = apply_colormap(vals, vmin, vmax, spec.colormap)
                        raster.draw_mesh(camera, verts, faces, colors)
            composited = composite(
                comm,
                raster.image(),
                raster.depth_image(depth_dtype),
                method=method,
                arena=arena,
            )
            if composited is not None and composited[0] is raster.image():
                # single-rank identity: detach from the (recyclable)
                # rasterizer buffers before closing
                composited = (composited[0].copy(), composited[1].copy())
        finally:
            raster.close()
            arena.release(*scratch)

    # annotation ranges: the serial pipeline scans the full color
    # array; fragments tile it disjointly, so reduced local extrema
    # match bitwise (collective — computed on every rank)
    ann_range: dict[str, tuple[float, float]] = {}
    if pipeline.annotate:
        ann_specs = (contours[:1] if contours else []) + slices
        for spec in ann_specs:
            name = spec.color_array or spec.array
            if name in ann_range:
                continue
            if spec.vmin is not None and spec.vmax is not None:
                ann_range[name] = (spec.vmin, spec.vmax)
                continue
            lo, hi = _local_extrema(
                payload[name] for _o, _d, payload in fragments
            )
            glo = comm.allreduce(lo, ReduceOp.MIN)
            ghi = comm.allreduce(hi, ReduceOp.MAX)
            ann_range[name] = (glo, ghi)

    # slices: ship only the two contributing lattice planes to root
    slice_planes = []
    for spec in slices:
        world_axis = {"x": 0, "y": 1, "z": 2}[spec.axis]
        vax = 2 - world_axis  # volume is [z, y, x]
        position = (
            spec.position
            if spec.position is not None
            else float(bounds[world_axis].mean())
        )
        n = gdims[world_axis]
        i0, i1, t = slice_plan(n, spec.axis, position, gorigin, gspacing)
        rem = [a for a in (0, 1, 2) if a != vax]  # volume axes of the plane
        patches = []
        for (origin, dims, payload), off in zip(fragments, offsets):
            d = np.asarray(dims, dtype=int)
            vol = payload[spec.array]
            if spec.has_threshold:
                selector = payload[spec.threshold_array or spec.array]
                tlo, thi = _threshold_band(spec)
                vol = threshold_by(vol, selector, vmin=tlo, vmax=thi)
            row_off = int(off[2 - rem[0]])
            col_off = int(off[2 - rem[1]])
            for which, ip in ((0, i0), (1, i1)):
                local = ip - int(off[world_axis])
                if 0 <= local < d[world_axis]:
                    patches.append(
                        (which, row_off, col_off, np.take(vol, local, axis=vax))
                    )
        gathered = comm.gather(patches)
        if gathered is None:
            slice_planes.append(None)
            continue
        vol_shape = (gdims[2], gdims[1], gdims[0])
        plane_shape = (vol_shape[rem[0]], vol_shape[rem[1]])
        planes = [arena.borrow(plane_shape), arena.borrow(plane_shape)]
        try:
            with tel.tracer.span("catalyst.slice_assemble", step=step):
                for plane in planes:
                    plane.fill(np.nan)
                for chunk in gathered:
                    for which, row_off, col_off, patch in chunk:
                        planes[which][
                            row_off : row_off + patch.shape[0],
                            col_off : col_off + patch.shape[1],
                        ] = patch
            slice_planes.append((1.0 - t) * planes[0] + t * planes[1])
        finally:
            arena.release(*planes)

    if not comm.is_root:
        return None

    outputs: list[tuple[str, np.ndarray]] = []

    def annotated(frame, spec):
        if pipeline.annotate:
            vmin, vmax = ann_range[spec.color_array or spec.array]
            vmin = spec.vmin if spec.vmin is not None else vmin
            vmax = spec.vmax if spec.vmax is not None else vmax
            draw_annotations(frame, spec, vmin, vmax, step, time)
        return frame

    if contours:
        frame, depth = composited
        apply_background_gradient(frame, depth)
        outputs.append((f"{pipeline.name}_surface", annotated(frame, contours[0])))
    for i, (spec, plane) in enumerate(zip(slices, slice_planes)):
        rgb = apply_colormap(plane, spec.vmin, spec.vmax, spec.colormap)
        frame = _resize_nearest(rgb[::-1], pipeline.height, pipeline.width)
        outputs.append(
            (f"{pipeline.name}_slice{i}_{spec.array}", annotated(frame, spec))
        )
    return outputs
