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
        # a strided operand: the D.T view of the adjoint (D-form) applies
        np.testing.assert_allclose(
            apply_1d_x(D.T, gr) + apply_1d_y(D.T, gs) + apply_1d_z(D.T, gt),
            apply_1d_x_reference(D.T, gr) + apply_1d_y_reference(D.T, gs)
            + apply_1d_z_reference(D.T, gt),
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


class _ScreenCamera:
    """Camera stand-in: the vertices already are (x, y, depth) pixels."""

    def project(self, points):
        return np.asarray(points, dtype=float)


def _with_depth(rng, xy):
    """(F, 3, 2) screen xy -> (F, 3, 3) with positive one-decimal depths
    (so different triangles tie), random winding."""
    z = np.round(rng.uniform(0.5, 5.0, size=xy.shape[:2] + (1,)), 1)
    tris = np.concatenate([xy, z], axis=2)
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip][:, ::-1]
    return tris


def _soup(rng, n, width, height):
    centre = rng.uniform(-2, [width + 2, height + 2], size=(n, 1, 2))
    size = rng.choice([0.3, 2.0, 8.0, 40.0], size=(n, 1, 1))
    return _with_depth(rng, centre + rng.normal(size=(n, 3, 2)) * size)


def _lattice(rng, n, width, height):
    """Vertices on exact integer and half-pixel coordinates."""
    return _with_depth(
        rng, rng.integers(-2, 2 * max(width, height) + 4, size=(n, 3, 2)) / 2.0)


def _slivers(rng, n, width, height):
    """Widths 1e-14 .. 1e-2, along / across / oblique to the lines of
    pixel centres, starting on or just off a centre."""
    thick = 10.0 ** rng.uniform(-14, -2, size=(n, 1))
    length = rng.choice([0.7, 3.0, 20.0, 200.0], size=(n, 1))
    angle = rng.choice(
        [0.0, np.pi / 2, np.pi / 4, np.arctan(0.5), 1.0], size=n)
    along = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    across = np.stack([-along[:, 1], along[:, 0]], axis=1)
    start = (
        np.floor(rng.uniform(0, [width, height], size=(n, 2))) + 0.5
        + across * thick * rng.choice([0.0, -0.5, 0.5, -1.0], size=(n, 1))
    )
    xy = np.stack([
        start,
        start + along * length + across * thick * rng.random((n, 1)),
        start + along * length * rng.random((n, 1)) + across * thick,
    ], axis=1)
    return _with_depth(rng, xy)


def _axis_slivers(rng, n, width, height):
    """Axis-aligned slivers sitting on a row (or column) of centres."""
    thick = 10.0 ** rng.uniform(-14, -2, size=n)
    y = (np.floor(rng.uniform(0, height, size=n)) + 0.5
         + thick * rng.choice([0.0, 0.5, -0.5, -1.0], size=n))
    x = np.sort(rng.uniform(-3, width + 3, size=(n, 2)), axis=1)
    x = np.where(rng.random((n, 2)) < 0.5, x, np.floor(x) + 0.5)
    xy = np.stack([
        np.stack([x[:, 0], y], axis=1),
        np.stack([x[:, 1], y], axis=1),
        np.stack([x.mean(axis=1), y + thick], axis=1),
    ], axis=1)
    swap = rng.random(n) < 0.5
    xy[swap] = xy[swap][:, :, ::-1]
    return _with_depth(rng, xy)


def _bad_vertices(rng, n, width, height):
    """Huge-finite, NaN, +-inf and behind-camera vertices in a soup."""
    tris = _soup(rng, n, width, height)
    bad = rng.choice(
        [np.nan, np.inf, -np.inf, 1e300, -1e300, 1e155, 1e17], size=(n, 3, 2))
    tris[:, :, :2] = np.where(rng.random((n, 3, 2)) < 0.1, bad, tris[:, :, :2])
    behind = rng.choice([-1.0, 0.0, np.nan, np.inf], size=(n, 3))
    tris[:, :, 2] = np.where(rng.random((n, 3)) < 0.05, behind, tris[:, :, 2])
    return tris


def _huge_extent(rng, n, width, height):
    """One or two coordinates of 1e3 .. 1e300: past some size half a
    pixel is below one ulp of a barycentric weight."""
    tris = _soup(rng, n, width, height)
    huge = (10.0 ** rng.uniform(3, 300, size=(n, 3, 2))
            * rng.choice([-1.0, 1.0], size=(n, 3, 2)))
    tris[:, :, :2] = np.where(rng.random((n, 3, 2)) < 0.3, huge, tris[:, :, :2])
    return tris


_SCREEN_BATCHES = {
    "soup": _soup,
    "lattice": _lattice,
    "slivers": _slivers,
    "axis_slivers": _axis_slivers,
    "bad_vertices": _bad_vertices,
    "huge_extent": _huge_extent,
}


def _ulp_nudged_hits(rng, n, width, height):
    """Triangles with one vertex a few ulps off a pixel centre which the
    loop's float test accepts *at that centre* although the centre lies
    outside the triangle's exact extent."""
    centre = np.floor(rng.uniform(2, [width - 2, height - 2], (n, 2))) + 0.5
    a = centre.copy()
    for _ in range(4):
        a = np.where(
            rng.random((n, 2)) < 0.5, a,
            np.nextafter(a, rng.choice([-np.inf, np.inf], size=(n, 2))),
        )
    size = rng.choice([0.3, 1.0, 5.0, 30.0], size=(n, 1))
    tris = np.stack([
        a, a + rng.normal(size=(n, 2)) * size, a + rng.normal(size=(n, 2)) * size,
    ], axis=1)
    roll = (rng.integers(0, 3, size=(n, 1)) + np.arange(3)) % 3
    tris = np.take_along_axis(tris, roll[:, :, None], axis=1)
    (ax, ay), (bx, by), (cx, cy) = (tris[:, k].T for k in range(3))
    px, py = centre.T
    area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    w0 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / area
    w1 = ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / area
    accepted = (w0 >= 0) & (w1 >= 0) & (1.0 - w0 - w1 >= 0)
    accepted &= np.abs(area) >= 1e-12
    outside = ((centre < tris.min(axis=1)) | (centre > tris.max(axis=1))).any(axis=1)
    return tris[accepted & outside]


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

    # -- the candidate rule: tight pixel-centre boxes must stay a
    # superset of what the loop's float test accepts ------------------
    def _assert_screen_batches_identical(self, width, height, *batches):
        """Draw (F, 3, 3) screen-space batches one after another on one
        framebuffer per path; colour, depth and counts must be equal."""
        from repro.catalyst.rasterizer import Rasterizer

        camera = _ScreenCamera()
        fast, slow = Rasterizer(width, height), Rasterizer(width, height)
        for k, tris in enumerate(batches):
            vertices = np.asarray(tris, dtype=float).reshape(-1, 3)
            faces = np.arange(len(vertices)).reshape(-1, 3)
            colors = np.random.default_rng(k).integers(
                0, 256, size=(len(vertices), 3)).astype(np.uint8)
            with np.errstate(all="ignore"):   # nan/inf normals of bad faces
                nfast = fast.draw_mesh(camera, vertices, faces, colors)
                with naive_mode():
                    nslow = slow.draw_mesh(camera, vertices, faces, colors)
            assert nfast == nslow
        assert fast.triangles_drawn == slow.triangles_drawn
        np.testing.assert_array_equal(fast.depth, slow.depth)
        np.testing.assert_array_equal(fast.color, slow.color)
        return fast

    @pytest.mark.parametrize("kind", sorted(_SCREEN_BATCHES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidate_rule_matches_loop(self, kind, seed):
        rng = np.random.default_rng(seed)
        tris = _SCREEN_BATCHES[kind](rng, 60, 48, 40)
        self._assert_screen_batches_identical(48, 40, tris)

    def test_subpixel_triangles_between_centres_draw_nothing(self):
        rng = np.random.default_rng(3)
        corner = rng.integers(0, 32, size=(80, 1, 2)).astype(float)
        tris = _with_depth(rng, corner + rng.uniform(-0.4, 0.4, (80, 3, 2)))
        fast = self._assert_screen_batches_identical(32, 32, tris)
        assert fast.triangles_drawn == 0
        assert fast.candidates_tested == 0

    def test_centre_accepted_outside_the_exact_extent(self):
        """The loop's float test accepts some centres a few ulps outside
        the triangle; the guard band must keep them candidates."""
        tris = _ulp_nudged_hits(np.random.default_rng(0), 100_000, 64, 64)
        assert len(tris) > 50
        fast = self._assert_screen_batches_identical(
            64, 64, _with_depth(np.random.default_rng(1), tris))
        assert fast.triangles_drawn > 50

    def test_ties_across_box_shapes_keep_submission_order(self):
        """Equal z everywhere: the first-submitted triangle owns every
        shared pixel whatever shape group its box falls in."""
        rng = np.random.default_rng(4)
        centre = rng.uniform(8, 40, size=(120, 1, 2))
        size = rng.choice([0.8, 2.5, 6.0, 14.0], size=(120, 1, 1))
        xy = centre + rng.normal(size=(120, 3, 2)) * size
        tris = np.concatenate([xy, np.ones((120, 3, 1))], axis=2)
        self._assert_screen_batches_identical(48, 48, tris)
        tris[:, :, 2] = np.round(rng.uniform(1, 2, (120, 3)), 1)
        self._assert_screen_batches_identical(48, 48, tris)

    @pytest.mark.parametrize("chunk", [1, 37, 500])
    def test_forced_across_blocks(self, chunk, monkeypatch):
        from repro.catalyst import rasterizer

        monkeypatch.setattr(rasterizer, "_CHUNK_PIXELS", chunk)
        rng = np.random.default_rng(5)
        tris = np.concatenate([
            _SCREEN_BATCHES[kind](rng, 40, 48, 40)
            for kind in ("soup", "lattice", "bad_vertices")
        ])
        self._assert_screen_batches_identical(48, 40, rng.permutation(tris))

    def test_second_draw_onto_filled_depth_buffer(self):
        rng = np.random.default_rng(6)
        first = _SCREEN_BATCHES["soup"](rng, 80, 48, 40)
        second = _SCREEN_BATCHES["soup"](rng, 80, 48, 40)
        self._assert_screen_batches_identical(48, 40, first, second, first)

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


class TestRasterizerFaceChunks:
    """Face chunks, and the passes inside them, split on face boundaries
    in submission order: any size draws the loop's image, and the
    chunked normals shade as unchunked ones do."""

    @pytest.mark.parametrize("faces_per_chunk,pixels", [
        (1, 1 << 16), (7, 37), (64, 500),
    ])
    def test_face_chunks_match_the_loop(self, faces_per_chunk, pixels, monkeypatch):
        from repro.catalyst import rasterizer

        eq = TestRasterizerEquivalence()
        mesh = eq._soup(7, 300, 0.06)
        whole, nwhole, _, _ = eq._render_both(*mesh)
        monkeypatch.setattr(rasterizer, "_CHUNK_FACES", faces_per_chunk)
        monkeypatch.setattr(rasterizer, "_CHUNK_PIXELS", pixels)
        fast, nfast, slow, nslow = eq._render_both(*mesh)
        assert nfast == nslow == nwhole
        assert fast.candidates_tested == whole.candidates_tested
        for r in (fast, slow):
            np.testing.assert_array_equal(r.depth, whole.depth)
            np.testing.assert_array_equal(r.color, whole.color)
        rng = np.random.default_rng(8)
        tris = np.concatenate([
            _SCREEN_BATCHES[kind](rng, 40, 48, 40)
            for kind in ("soup", "lattice", "bad_vertices")
        ])
        eq._assert_screen_batches_identical(48, 40, rng.permutation(tris))


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
