"""The in situ render's working set, counted by tracemalloc.

A seeded 36 x 24 x 24 field contours to an isosurface of about 24k
faces and 61k vertices, the size of the largest ``pb_insitu`` frames,
drawn at 256 x 256.  Peaks are bytes allocated during one call, so the
verdicts are deterministic: no wall clock.  Before face chunks and the
flat fill, ``draw_mesh`` peaked at 22.4 MB on this surface and
``marching_tetrahedra`` at 11.3 MB.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.catalyst.camera import Camera
from repro.catalyst.colormaps import apply_colormap
from repro.catalyst.contour import marching_tetrahedra
from repro.catalyst.rasterizer import Rasterizer

MB = 1 << 20
#: peak budgets on the 24k-face surface
DRAW_BUDGET = 8 * MB
CONTOUR_BUDGET = 6 * MB
SPACING = (1 / 23,) * 3


def _field(shape, seed, modes=12, kmax=0.4):
    """A smooth seeded field: a sum of random plane waves."""
    rng = np.random.default_rng(seed)
    k, j, i = np.meshgrid(*(np.arange(n, dtype=float) for n in shape), indexing="ij")
    f = np.zeros(shape)
    for _ in range(modes):
        w = rng.uniform(-kmax, kmax, 3)
        f += np.cos(w[0] * i + w[1] * j + w[2] * k + rng.uniform(0, 2 * np.pi))
    return f


def _peak(fn) -> int:
    """Peak bytes allocated while `fn()` runs, beyond what it started with."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _contour(vol, aux):
    return marching_tetrahedra(vol, 0.0, spacing=SPACING, aux=aux)


def _mesh(vol, aux):
    verts, faces, vals = _contour(vol, aux)
    return verts, faces, apply_colormap(vals, -3.0, 3.0)


@pytest.fixture(scope="module")
def volumes():
    shape = (36, 24, 24)
    return _field(shape, seed=0), _field(shape, seed=1)


@pytest.fixture(scope="module")
def camera():
    bounds = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 35 / 23]])
    return Camera.fit_bounds(bounds, width=256, height=256)


def _draw_peak(camera, verts, faces, colors) -> int:
    raster = Rasterizer(256, 256)
    return _peak(lambda: raster.draw_mesh(camera, verts, faces, colors))


def test_contour_peak_within_budget(volumes):
    verts, faces, _ = _contour(*volumes)
    assert len(faces) >= 20_000
    assert _peak(lambda: _contour(*volumes)) <= CONTOUR_BUDGET


def test_draw_mesh_peak_within_budget(volumes, camera):
    verts, faces, colors = _mesh(*volumes)
    assert len(faces) >= 20_000
    assert _draw_peak(camera, verts, faces, colors) <= DRAW_BUDGET


def test_draw_mesh_peak_does_not_grow_with_faces(volumes, camera):
    """Twice the faces over the same vertices: the per-face and
    per-candidate arrays live one face chunk at a time, so the peak
    moves by the whole-mesh shading intensities only."""
    verts, faces, colors = _mesh(*volumes)
    doubled = np.concatenate([faces, faces])
    once = _draw_peak(camera, verts, faces, colors)
    assert _draw_peak(camera, verts, doubled, colors) <= 1.25 * once


def test_draw_mesh_peak_grows_by_whole_mesh_arrays_only(volumes, camera):
    """Twice the surface (its mirror image stacked on top): the peak
    grows by the arrays that stay whole-mesh on purpose — the projected
    vertices (24 B each) and the per-face intensities (8 B each), whose
    BLAS products keep their shape — with slack, not by the fill's."""
    vol, aux = volumes
    verts, faces, colors = _mesh(vol, aux)
    verts2, faces2, colors2 = _mesh(
        np.concatenate([vol, vol[::-1]]), np.concatenate([aux, aux[::-1]])
    )
    assert len(faces2) > 1.9 * len(faces)
    growth = (
        _draw_peak(camera, verts2, faces2, colors2)
        - _draw_peak(camera, verts, faces, colors)
    )
    added = 40 * (len(verts2) - len(verts)) + 40 * (len(faces2) - len(faces))
    assert growth <= added
