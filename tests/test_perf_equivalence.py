"""Optimized-vs-reference equivalence for every perf-layer hot path.

The acceptance bar for PR 3: plan-cached SEM kernels match the naive
reference to 1e-13 across randomized shapes, the batched rasterizer is
*bit-for-bit* identical to the per-triangle loop, gather-scatter setup
matches the dict-based discovery, and the allocation-free CG agrees
with the reference solver.  The batched marching-tetrahedra contour is
held to the same bar as the rasterizer: ``(verts, faces, vals)``
byte-equal to the per-cube loop, dtypes and order included.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.catalyst.contour import marching_tetrahedra
from repro.parallel import SerialCommunicator
from repro.perf import naive_mode
from repro.sem import BoundaryTag, BoxMesh, SEMOperators
from repro.sem.coarse import CoarseGrid
from repro.sem.gather_scatter import find_interface_ids, interface_ids_reference
from repro.sem.krylov import cg_solve, cg_solve_reference
from repro.sem.tensor import (
    apply_1d_x,
    apply_1d_x_reference,
    apply_1d_y,
    apply_1d_y_reference,
    apply_1d_z,
    apply_1d_z_reference,
    apply_3d,
    local_grad,
    local_grad_transpose,
    local_grad_transpose_reference,
)

TOL = dict(rtol=0.0, atol=1e-13)

#: randomized (E, N) shapes, including rectangular (dealias) operators
SHAPES = [(1, 2), (3, 4), (8, 5), (2, 7), (13, 3)]


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestTensorKernels:
    @pytest.mark.parametrize("E,N", SHAPES)
    def test_apply_1d_matches_reference(self, E, N):
        nq = N + 1
        f = _rand((E, nq, nq, nq), seed=E * 31 + N)
        A = _rand((nq, nq), seed=E + N)
        for fast, ref in (
            (apply_1d_x, apply_1d_x_reference),
            (apply_1d_y, apply_1d_y_reference),
            (apply_1d_z, apply_1d_z_reference),
        ):
            np.testing.assert_allclose(fast(A, f), ref(A, f), **TOL)

    @pytest.mark.parametrize("E,N", SHAPES)
    def test_apply_1d_rectangular(self, E, N):
        """Dealias-style operators map nq -> mq != nq."""
        nq, mq = N + 1, N + 3
        f = _rand((E, nq, nq, nq), seed=N)
        A = _rand((mq, nq), seed=N + 1)
        np.testing.assert_allclose(
            apply_1d_x(A, f), apply_1d_x_reference(A, f), **TOL
        )
        np.testing.assert_allclose(
            apply_1d_y(A, f), apply_1d_y_reference(A, f), **TOL
        )
        np.testing.assert_allclose(
            apply_1d_z(A, f), apply_1d_z_reference(A, f), **TOL
        )

    @pytest.mark.parametrize("E,N", SHAPES[:3])
    def test_apply_1d_out_buffer(self, E, N):
        nq = N + 1
        f = _rand((E, nq, nq, nq), seed=9)
        A = _rand((nq, nq), seed=10)
        for fast, ref in (
            (apply_1d_x, apply_1d_x_reference),
            (apply_1d_y, apply_1d_y_reference),
            (apply_1d_z, apply_1d_z_reference),
        ):
            out = np.empty_like(f)
            res = fast(A, f, out=out)
            assert res is out
            np.testing.assert_allclose(out, ref(A, f), **TOL)

    @pytest.mark.parametrize("E,N", SHAPES)
    def test_apply_3d_matches_composition(self, E, N):
        nq, mq = N + 1, N + 2
        f = _rand((E, nq, nq, nq), seed=E)
        Ax = _rand((mq, nq), seed=1)
        Ay = _rand((mq, nq), seed=2)
        Az = _rand((mq, nq), seed=3)
        expected = apply_1d_z_reference(
            Az, apply_1d_y_reference(Ay, apply_1d_x_reference(Ax, f))
        )
        np.testing.assert_allclose(apply_3d(Ax, Ay, Az, f), expected, **TOL)

    @pytest.mark.parametrize("E,N", SHAPES)
    def test_local_grad_and_transpose(self, E, N):
        nq = N + 1
        f = _rand((E, nq, nq, nq), seed=E + 17)
        D = _rand((nq, nq), seed=N + 17)
        gr, gs, gt = local_grad(D, f)
        np.testing.assert_allclose(gr, apply_1d_x_reference(D, f), **TOL)
        np.testing.assert_allclose(gs, apply_1d_y_reference(D, f), **TOL)
        np.testing.assert_allclose(gt, apply_1d_z_reference(D, f), **TOL)
        np.testing.assert_allclose(
            local_grad_transpose(D, gr, gs, gt),
            local_grad_transpose_reference(D, gr, gs, gt),
            **TOL,
        )

    def test_non_contiguous_input_falls_back(self):
        """Strided fields must still produce correct results."""
        f = _rand((4, 6, 6, 12), seed=0)[..., ::2]
        A = _rand((6, 6), seed=1)
        np.testing.assert_allclose(
            apply_1d_x(A, f), apply_1d_x_reference(A, f), **TOL
        )


class TestOperatorsEquivalence:
    @pytest.fixture(scope="class")
    def ops(self):
        return SEMOperators(BoxMesh((2, 2, 2), order=4), SerialCommunicator())

    @pytest.fixture(scope="class")
    def f(self, ops):
        return _rand(ops.mesh.field_shape(), seed=5)

    def _pair(self, call):
        fast = call()
        with naive_mode():
            slow = call()
        return fast, slow

    def test_stiffness(self, ops, f):
        fast, slow = self._pair(lambda: ops.stiffness_apply(f))
        np.testing.assert_allclose(fast, slow, **TOL)

    def test_helmholtz(self, ops, f):
        fast, slow = self._pair(lambda: ops.helmholtz_apply(f, 2.5, 0.5))
        np.testing.assert_allclose(fast, slow, **TOL)

    def test_mass(self, ops, f):
        fast, slow = self._pair(lambda: ops.mass_apply(f))
        np.testing.assert_allclose(fast, slow, **TOL)

    def test_stiffness_diagonal(self, ops):
        fast, slow = self._pair(lambda: ops.stiffness_diagonal(1.0, 1.0))
        np.testing.assert_allclose(fast, slow, **TOL)

    def test_grad_div_convect(self, ops, f):
        u, v, w = (_rand(f.shape, seed=s) for s in (11, 12, 13))
        for call in (
            lambda: ops.grad(f),
            lambda: ops.div(u, v, w),
            lambda: ops.convect(f, u, v, w),
        ):
            fast, slow = self._pair(call)
            np.testing.assert_allclose(
                np.asarray(fast), np.asarray(slow), **TOL
            )

    def test_dot_bitwise(self, ops, f):
        g = _rand(f.shape, seed=21)
        fast, slow = self._pair(lambda: ops.dot(f, g))
        assert fast == slow  # same elementwise ops + pairwise sum

    def test_integrate_bitwise(self, ops, f):
        fast, slow = self._pair(lambda: ops.integrate(f))
        assert fast == slow


class TestCGEquivalence:
    def test_cg_bitwise_vs_reference(self):
        ops = SEMOperators(BoxMesh((2, 2, 2), order=4), SerialCommunicator())
        rng = np.random.default_rng(3)
        b = ops.assemble(rng.normal(size=ops.mesh.field_shape()))
        diag = ops.stiffness_diagonal(1.0, 1.0)
        pre = 1.0 / diag

        def apply_op(f):
            return ops.assemble(ops.helmholtz_apply(f, 1.0, 1.0))

        fast = cg_solve(apply_op, b, ops.dot, precond=pre, tol=1e-10,
                        max_iterations=50)
        slow = cg_solve_reference(apply_op, b, ops.dot, precond=pre, tol=1e-10,
                                  max_iterations=50)
        assert fast.iterations == slow.iterations
        assert fast.residual == slow.residual
        np.testing.assert_array_equal(fast.x, slow.x)

    def test_cg_unpreconditioned_and_x0(self):
        ops = SEMOperators(BoxMesh((2, 2, 2), order=3), SerialCommunicator())
        rng = np.random.default_rng(4)
        b = ops.assemble(rng.normal(size=ops.mesh.field_shape()))
        x0 = rng.normal(size=b.shape)

        def apply_op(f):
            return ops.assemble(ops.helmholtz_apply(f, 1.0, 1.0))

        fast = cg_solve(apply_op, b, ops.dot, x0=x0, tol=1e-9,
                        max_iterations=40)
        slow = cg_solve_reference(apply_op, b, ops.dot, x0=x0, tol=1e-9,
                                  max_iterations=40)
        assert fast.iterations == slow.iterations
        np.testing.assert_array_equal(fast.x, slow.x)
        np.testing.assert_array_equal(x0, x0)  # caller's x0 untouched

    @pytest.mark.parametrize("singular", [False, True])
    def test_cg_callable_preconditioner(self, singular):
        """`precond` as a callable M(r, out): the two-level pressure
        preconditioner, with and without the nullspace projection."""
        ops = SEMOperators(BoxMesh((3, 2, 2), order=4), SerialCommunicator())
        faces = [] if singular else [BoundaryTag.ZMAX]
        mask = ~ops.mesh.boundary_union(faces)
        grid = CoarseGrid(ops, mask, mask / ops.stiffness_diagonal())
        project = ops.project_out_nullspace if singular else None
        rng = np.random.default_rng(5)
        b = ops.assemble(rng.normal(size=mask.shape)) * mask
        if singular:
            b = project(b)

        def apply_op(f):
            return ops.assemble(ops.stiffness_apply(f)) * mask

        kw = dict(precond=grid, tol=1e-10, max_iterations=60,
                  project_nullspace=project)
        fast = cg_solve(apply_op, b, ops.dot, **kw)
        slow = cg_solve_reference(apply_op, b, ops.dot, **kw)
        assert fast.converged and fast.iterations == slow.iterations
        assert fast.residual == slow.residual
        np.testing.assert_array_equal(fast.x, slow.x)


class TestGatherScatterSetup:
    def test_matches_reference_random_sets(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            sets = [
                np.unique(rng.integers(0, 500, size=rng.integers(10, 200)))
                for _ in range(rng.integers(2, 6))
            ]
            np.testing.assert_array_equal(
                find_interface_ids(sets), interface_ids_reference(sets)
            )

    def test_empty_and_disjoint(self):
        sets = [np.array([0, 1], dtype=np.int64),
                np.array([2, 3], dtype=np.int64)]
        assert len(find_interface_ids(sets)) == 0
        shared = [np.array([0, 1, 2], dtype=np.int64),
                  np.array([2, 3], dtype=np.int64),
                  np.array([2, 5], dtype=np.int64)]
        np.testing.assert_array_equal(find_interface_ids(shared), [2])

    def test_naive_mode_uses_reference(self):
        sets = [np.array([1, 2]), np.array([2, 3])]
        with naive_mode():
            np.testing.assert_array_equal(find_interface_ids(sets), [2])


class TestRasterizerEquivalence:
    def _soup(self, seed, nfaces, scale, width=96, height=80):
        from repro.catalyst.camera import Camera

        rng = np.random.default_rng(seed)
        centers = rng.uniform(-1.0, 1.0, size=(nfaces, 1, 3))
        vertices = (
            centers + rng.normal(scale=scale, size=(nfaces, 3, 3))
        ).reshape(-1, 3)
        faces = np.arange(3 * nfaces).reshape(nfaces, 3)
        colors = rng.integers(0, 256, size=(3 * nfaces, 3)).astype(np.uint8)
        camera = Camera.fit_bounds(
            np.array([[-1.5, 1.5]] * 3), width=width, height=height
        )
        return camera, vertices, faces, colors

    def _render_both(self, camera, vertices, faces, colors):
        from repro.catalyst.rasterizer import Rasterizer

        fast = Rasterizer(camera.width, camera.height)
        nfast = fast.draw_mesh(camera, vertices, faces, colors)
        slow = Rasterizer(camera.width, camera.height)
        with naive_mode():
            nslow = slow.draw_mesh(camera, vertices, faces, colors)
        return fast, nfast, slow, nslow

    @pytest.mark.parametrize("seed,nfaces,scale", [
        (0, 50, 0.08),   # small triangles (marching-tetrahedra shape)
        (1, 12, 0.8),    # large overlapping triangles
        (2, 200, 0.03),  # dense soup, heavy z-fighting
    ])
    def test_golden_image_equality(self, seed, nfaces, scale):
        fast, nfast, slow, nslow = self._render_both(
            *self._soup(seed, nfaces, scale)
        )
        assert nfast == nslow
        np.testing.assert_array_equal(fast.depth, slow.depth)
        np.testing.assert_array_equal(fast.color, slow.color)

    def test_degenerate_offscreen_and_behind(self):
        from repro.catalyst.camera import Camera

        camera = Camera.fit_bounds(np.array([[-1, 1]] * 3), width=64,
                                   height=64)
        vertices = np.array([
            [0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.2, 0.0],   # normal
            [0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0],   # degenerate
            [50.0, 50.0, 0.0], [51.0, 50.0, 0.0], [50.0, 51.0, 0.0],  # off
            [-9.0, 0.0, -9.0], [-9.1, 0.0, -9.0], [-9.0, 0.1, -9.0],  # behind
        ])
        faces = np.arange(12).reshape(4, 3)
        colors = np.full((12, 3), 200, dtype=np.uint8)
        fast, nfast, slow, nslow = self._render_both(
            camera, vertices, faces, colors
        )
        assert nfast == nslow
        np.testing.assert_array_equal(fast.depth, slow.depth)
        np.testing.assert_array_equal(fast.color, slow.color)

    def test_equal_depth_tie_breaks_identically(self):
        """Coplanar duplicated faces: later faces must lose ties."""
        from repro.catalyst.camera import Camera

        camera = Camera.fit_bounds(np.array([[-1, 1]] * 3), width=48,
                                   height=48)
        tri = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.0, 0.6, 0.0]])
        vertices = np.vstack([tri, tri, tri])
        faces = np.arange(9).reshape(3, 3)
        colors = np.array(
            [[255, 0, 0]] * 3 + [[0, 255, 0]] * 3 + [[0, 0, 255]] * 3,
            dtype=np.uint8,
        )
        fast, nfast, slow, nslow = self._render_both(
            camera, vertices, faces, colors
        )
        assert nfast == nslow
        np.testing.assert_array_equal(fast.color, slow.color)

    def test_render_pipeline_end_to_end(self):
        """Full contour render agrees between batched and loop paths."""
        from repro.catalyst import RenderPipeline, RenderSpec
        from repro.vtkdata import DataArray, ImageData

        n = 12
        image = ImageData((n, n, n), origin=(0, 0, 0),
                          spacing=(1 / (n - 1),) * 3)
        g = np.linspace(0, 1, n)
        Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
        sphere = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2)
        image.add_array(DataArray("phi", sphere.ravel()))
        spec = [RenderSpec(kind="contour", array="phi", isovalue=0.3)]

        fast_pipe = RenderPipeline(specs=spec, width=96, height=96, name="eq")
        fast_frames = dict(fast_pipe.render(image, 0, 0.0))
        slow_pipe = RenderPipeline(specs=spec, width=96, height=96, name="eq")
        with naive_mode():
            slow_frames = dict(slow_pipe.render(image, 0, 0.0))
        assert fast_frames.keys() == slow_frames.keys()
        for name in fast_frames:
            np.testing.assert_array_equal(fast_frames[name],
                                          slow_frames[name])


def _assert_bitwise(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestContourEquivalence:
    """Batched marching tetrahedra vs the per-cube reference loop."""

    KW = dict(origin=(0.1, -0.7, 3.3), spacing=(0.3, 0.7, 1.1))

    def _both(self, vol, iso, **kw):
        fast = marching_tetrahedra(vol, iso, **kw)
        with naive_mode():
            slow = marching_tetrahedra(vol, iso, **kw)
        _assert_bitwise(fast, slow)
        return fast

    @pytest.mark.parametrize("seed,shape", [
        (0, (7, 6, 5)), (1, (5, 9, 4)), (2, (12, 11, 10)),
    ])
    @pytest.mark.parametrize("with_aux", [False, True])
    def test_random_volumes(self, seed, shape, with_aux):
        vol = _rand(shape, seed)
        aux = _rand(shape, seed + 100) if with_aux else None
        verts, faces, vals = self._both(
            vol, 0.2, aux=aux, index_offset=(3, -2, 11), **self.KW
        )
        assert len(faces) > 0
        assert verts.dtype == vals.dtype == np.float64
        assert faces.dtype == np.int64

    @pytest.mark.parametrize("blank", [np.nan, np.inf, -np.inf])
    def test_blanked_regions(self, blank):
        """The threshold pre-filter blanks with NaN; +-inf corners are
        skipped by the same ``isfinite`` test."""
        vol = _rand((8, 8, 8), seed=3)
        vol[np.random.default_rng(4).random(vol.shape) < 0.15] = blank
        vol[2:4, :, 5:] = blank
        whole = self._both(vol, 0.0, aux=_rand((8, 8, 8), seed=5), **self.KW)
        clean = marching_tetrahedra(_rand((8, 8, 8), seed=3), 0.0)
        assert 0 < len(whole[1]) < len(clean[1])

    def test_plateau_at_isovalue(self):
        """Corners exactly at the isovalue count as not above: t clips
        to an endpoint and duplicate vertices are emitted identically."""
        vol = np.round(_rand((7, 7, 7), seed=6))
        for iso in (0.0, 1.0, -1.0):
            _, faces, _ = self._both(vol, iso, aux=vol * 3.0, **self.KW)
            assert len(faces) > 0

    @pytest.mark.parametrize("iso", [-10.0, 10.0, np.inf, -np.inf])
    def test_all_on_one_side(self, iso):
        verts, faces, vals = self._both(_rand((5, 5, 5), seed=7), iso)
        assert verts.shape == (0, 3) and faces.shape == (0, 3)
        assert vals.shape == (0,)

    @pytest.mark.parametrize("shape", [
        (2, 2, 2), (2, 5, 4), (5, 2, 4), (5, 4, 2), (2, 2, 6), (1, 4, 4),
    ])
    def test_thin_axes(self, shape):
        self._both(_rand(shape, seed=8), 0.1, **self.KW)

    def test_input_dtypes_and_strides(self):
        big = _rand((10, 10, 10), seed=9)
        self._both(big[1:8, ::2, 2:9], 0.0, aux=big[2:9, ::2, 1:8])
        self._both(big.astype(np.float32), np.float32(0.1))
        self._both((big * 4).astype(np.int32), 0)

    def test_chunking_is_invisible(self, monkeypatch):
        """Chunks split on cube boundaries: any chunk size, same bytes."""
        from repro.catalyst import contour

        vol = _rand((9, 8, 7), seed=10)
        vol[4:6, 3:5, :] = np.nan
        kw = dict(aux=vol**2, index_offset=(1, 2, 3), **self.KW)
        want = self._both(vol, 0.1, **kw)
        for chunk in (1, 7, 64):
            monkeypatch.setattr(contour, "_CHUNK_CUBES", chunk)
            _assert_bitwise(marching_tetrahedra(vol, 0.1, **kw), want)

    @pytest.mark.parametrize("naive", [False, True])
    def test_fragments_concatenate_to_whole(self, naive):
        """Slabs overlapping by one lattice plane, placed with
        ``index_offset``, contour to the whole volume's surface — the
        sort-last compositor's invariant, under both paths."""
        vol = _rand((11, 6, 7), seed=11)
        aux = _rand((11, 6, 7), seed=12)
        pieces = []
        with naive_mode() if naive else contextlib.nullcontext():
            whole = marching_tetrahedra(vol, 0.05, aux=aux, **self.KW)
            base = 0
            for k0, k1 in ((0, 4), (3, 8), (7, 11)):
                v, f, s = marching_tetrahedra(
                    vol[k0:k1], 0.05, aux=aux[k0:k1],
                    index_offset=(0, 0, k0), **self.KW,
                )
                pieces.append((v, f + base, s))
                base += len(v)
        joined = tuple(np.concatenate(part) for part in zip(*pieces))
        _assert_bitwise(joined, whole)
