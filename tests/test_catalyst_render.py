"""Tests for the rendering stack: colormaps, camera, rasterizer, contour,
slices, and pipelines."""

import numpy as np
import pytest

from repro.catalyst import (
    Camera,
    Rasterizer,
    RenderPipeline,
    RenderSpec,
    apply_colormap,
    axis_slice,
    colormap_names,
    load_pipeline_script,
    marching_tetrahedra,
)
from repro.catalyst.slicefilter import trilinear_sample
from repro.vtkdata import DataArray, ImageData


class TestColormaps:
    def test_names(self):
        assert "viridis" in colormap_names()
        assert "coolwarm" in colormap_names()

    def test_output_shape_dtype(self):
        rgb = apply_colormap(np.linspace(0, 1, 10))
        assert rgb.shape == (10, 3)
        assert rgb.dtype == np.uint8

    def test_endpoints(self):
        rgb = apply_colormap(np.array([0.0, 1.0]), vmin=0, vmax=1, name="grayscale")
        np.testing.assert_array_equal(rgb[0], [0, 0, 0])
        np.testing.assert_array_equal(rgb[1], [255, 255, 255])

    def test_clipping(self):
        rgb = apply_colormap(np.array([-5.0, 5.0]), vmin=0, vmax=1, name="grayscale")
        np.testing.assert_array_equal(rgb[0], [0, 0, 0])
        np.testing.assert_array_equal(rgb[1], [255, 255, 255])

    def test_nan_maps_to_gray(self):
        rgb = apply_colormap(np.array([np.nan, 0.5]), vmin=0, vmax=1)
        np.testing.assert_array_equal(rgb[0], [128, 128, 128])

    def test_constant_field_no_error(self):
        rgb = apply_colormap(np.full(4, 3.0))
        assert (rgb == rgb[0]).all()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            apply_colormap(np.zeros(2), name="jet3000")

    def test_preserves_shape_2d(self):
        rgb = apply_colormap(np.zeros((4, 5)))
        assert rgb.shape == (4, 5, 3)


class TestCamera:
    def test_center_projects_to_image_center(self):
        cam = Camera(position=(0, -5, 0), look_at=(0, 0, 0), width=100, height=80)
        px = cam.project(np.array([[0.0, 0.0, 0.0]]))
        assert px[0, 0] == pytest.approx(50.0)
        assert px[0, 1] == pytest.approx(40.0)

    def test_depth_increases_away(self):
        cam = Camera(position=(0, -5, 0), look_at=(0, 0, 0))
        near = cam.project(np.array([[0.0, -1.0, 0.0]]))[0, 2]
        far = cam.project(np.array([[0.0, 3.0, 0.0]]))[0, 2]
        assert far > near

    def test_behind_camera_infinite(self):
        cam = Camera(position=(0, -5, 0), look_at=(0, 0, 0))
        p = cam.project(np.array([[0.0, -10.0, 0.0]]))
        assert not np.isfinite(p[0, 0])

    def test_up_is_up(self):
        cam = Camera(position=(0, -5, 0), look_at=(0, 0, 0), up=(0, 0, 1))
        above = cam.project(np.array([[0.0, 0.0, 1.0]]))
        below = cam.project(np.array([[0.0, 0.0, -1.0]]))
        assert above[0, 1] < below[0, 1]  # screen y grows downward

    def test_fit_bounds_frames_everything(self):
        bounds = np.array([[0, 2], [0, 2], [0, 2]], dtype=float)
        cam = Camera.fit_bounds(bounds, width=64, height=64)
        corners = np.array(
            [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)], dtype=float
        )
        px = cam.project(corners)
        assert (px[:, 0] >= 0).all() and (px[:, 0] < 64).all()
        assert (px[:, 1] >= 0).all() and (px[:, 1] < 64).all()

    def test_orthographic(self):
        cam = Camera(
            position=(0, -5, 0), look_at=(0, 0, 0),
            orthographic=True, ortho_scale=2.0, width=100, height=100,
        )
        # parallel projection: doubling distance does not change position
        a = cam.project(np.array([[1.0, 0.0, 0.0]]))
        cam2 = Camera(
            position=(0, -10, 0), look_at=(0, 0, 0),
            orthographic=True, ortho_scale=2.0, width=100, height=100,
        )
        b = cam2.project(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(a[0, :2], b[0, :2])

    def test_invalid_fov(self):
        with pytest.raises(ValueError):
            Camera(position=(0, -1, 0), look_at=(0, 0, 0), fov_degrees=200)


def check_rasterizer(raster, background):
    """Shape, dtype and range of a framebuffer, and that depth is finite
    exactly where something other than `background` was drawn."""
    color, depth = raster.image(), raster.depth
    assert color.shape == (raster.height, raster.width, 3)
    assert color.dtype == np.uint8
    assert depth.shape == (raster.height, raster.width)
    assert depth.dtype == np.float64
    assert not np.isnan(depth).any()
    covered = np.isfinite(depth)
    assert (depth[covered] > 0).all()
    np.testing.assert_array_equal(
        covered, (color != np.asarray(background, dtype=np.uint8)).any(axis=2)
    )
    assert raster.depth_image().dtype == np.float32


def _pixel_centres_inside(tris):
    """Per (F, 3, 3) screen triangle, the pixel centres its interior
    covers — the per-triangle loop's inside test, no clipping."""
    counts = np.zeros(len(tris), dtype=int)
    for f, ((ax, ay, _), (bx, by, _), (cx, cy, _)) in enumerate(tris):
        area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if abs(area) < 1e-12:
            continue
        px, py = np.meshgrid(
            np.arange(np.floor(min(ax, bx, cx)), np.ceil(max(ax, bx, cx)) + 1) + 0.5,
            np.arange(np.floor(min(ay, by, cy)), np.ceil(max(ay, by, cy)) + 1) + 0.5,
        )
        w0 = ((bx - px) * (cy - py) - (by - py) * (cx - px)) / area
        w1 = ((cx - px) * (ay - py) - (cy - py) * (ax - px)) / area
        counts[f] = ((w0 >= 0) & (w1 >= 0) & (1.0 - w0 - w1 >= 0)).sum()
    return counts


class TestRasterizer:
    def _tri(self):
        verts = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        faces = np.array([[0, 1, 2]])
        colors = np.full((3, 3), 255, dtype=np.uint8)
        return verts, faces, colors

    def test_draws_triangle(self):
        cam = Camera(position=(1, 1, -5), look_at=(1, 1, 0), up=(0, 1, 0),
                     width=64, height=64)
        r = Rasterizer(64, 64, background=(0, 0, 0))
        verts, faces, colors = self._tri()
        drawn = r.draw_mesh(cam, verts, faces, colors)
        assert drawn == 1
        assert r.image().max() > 0
        assert np.isfinite(r.depth).sum() > 10

    def test_depth_test_front_wins(self):
        cam = Camera(position=(1, 1, -5), look_at=(1, 1, 0), up=(0, 1, 0),
                     width=32, height=32)
        r = Rasterizer(32, 32, background=(0, 0, 0))
        verts, faces, _ = self._tri()
        red = np.zeros((3, 3), dtype=np.uint8); red[:, 0] = 255
        blue = np.zeros((3, 3), dtype=np.uint8); blue[:, 2] = 255
        far = verts + [0, 0, 1.0]
        r.draw_mesh(cam, far, faces, blue, ambient=1.0)
        r.draw_mesh(cam, verts, faces, red, ambient=1.0)
        img = r.image()
        covered = np.isfinite(r.depth)
        assert img[covered][:, 0].max() == 255       # red visible
        # draw order reversed must give the same front surface
        r2 = Rasterizer(32, 32, background=(0, 0, 0))
        r2.draw_mesh(cam, verts, faces, red, ambient=1.0)
        r2.draw_mesh(cam, far, faces, blue, ambient=1.0)
        np.testing.assert_array_equal(r.image(), r2.image())

    def test_empty_mesh(self):
        cam = Camera(position=(0, -5, 0), look_at=(0, 0, 0))
        r = Rasterizer(16, 16)
        assert r.draw_mesh(cam, np.zeros((0, 3)), np.zeros((0, 3), int),
                           np.zeros((0, 3), np.uint8)) == 0

    def test_background_gradient_only_untouched(self):
        cam = Camera(position=(1, 1, -5), look_at=(1, 1, 0), up=(0, 1, 0),
                     width=32, height=32)
        r = Rasterizer(32, 32, background=(0, 0, 0))
        verts, faces, colors = self._tri()
        r.draw_mesh(cam, verts, faces, colors, ambient=1.0)
        before = r.image().copy()
        covered = np.isfinite(r.depth)
        r.draw_background_gradient(top=(9, 9, 9), bottom=(9, 9, 9))
        np.testing.assert_array_equal(r.image()[covered], before[covered])
        assert (r.image()[~covered] == 9).all()

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Rasterizer(0, 10)

    @pytest.mark.parametrize("width,height", [
        (16, 16), (64, 48), (37, 128), (256, 256), (512, 512),
    ])
    @pytest.mark.parametrize("scale", [0.01, 0.1, 1.0])
    def test_framebuffer_contract(self, width, height, scale):
        """Meaning, not bytes: what a frame must look like at any image
        size and triangle size (sub-pixel to larger than the screen)."""
        rng = np.random.default_rng(width + height)
        nfaces = 150
        centers = rng.uniform(-1.0, 1.0, size=(nfaces, 1, 3))
        verts = (centers + rng.normal(scale=scale, size=(nfaces, 3, 3))).reshape(-1, 3)
        faces = np.arange(3 * nfaces).reshape(nfaces, 3)
        # lit colours stay >= 0.35 * 100, so black is background only
        colors = rng.integers(100, 256, size=(3 * nfaces, 3)).astype(np.uint8)
        cam = Camera.fit_bounds(np.array([[-1.5, 1.5]] * 3), width=width,
                                height=height)
        r = Rasterizer(width, height, background=(0, 0, 0))
        drawn = r.draw_mesh(cam, verts, faces, colors)
        check_rasterizer(r, (0, 0, 0))
        assert type(drawn) is int and 0 <= drawn <= nfaces   # tracers keep it
        assert (drawn > 0) == bool(np.isfinite(r.depth).any())
        assert r.candidates_tested >= np.isfinite(r.depth).sum()

    def test_candidates_stay_near_the_pixels_inside(self):
        """Work guard without a clock: on a marching-tetrahedra surface
        the fill tests at most 4 pixel centres per centre that lies
        inside its triangle (whole bounding boxes: ~8 here)."""
        n = 24
        g = np.linspace(-1, 1, n)
        Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
        verts, faces, vals = marching_tetrahedra(
            Z - 0.25 * np.sin(3 * X) * np.cos(2 * Y), 0.03,
            origin=(-1, -1, -1), spacing=(2 / (n - 1),) * 3,
        )
        cam = Camera.fit_bounds(np.array([[-1.0, 1.0]] * 3),
                                direction=(0.3, -0.4, 1.0), width=256, height=256)
        colors = apply_colormap(verts[:, 0])
        r = Rasterizer(256, 256)
        r.draw_mesh(cam, verts, faces, colors)
        tris = cam.project(verts)[faces]
        inside = _pixel_centres_inside(tris)
        assert len(faces) > 4000 and inside.sum() > 15000
        assert r.candidates_tested / inside.sum() <= 4.0
        # a triangle whose extent holds no pixel centre costs nothing
        lo, hi = tris[:, :, :2].min(axis=1), tris[:, :, :2].max(axis=1)
        empty = (np.ceil(lo - 0.51) > np.floor(hi - 0.49)).any(axis=1)
        assert empty.sum() > 100
        r2 = Rasterizer(256, 256)
        assert r2.draw_mesh(cam, verts, faces[empty], colors) == 0
        assert r2.candidates_tested == 0


class TestMarchingTetrahedra:
    def _sphere_volume(self, n=16, r=0.6):
        g = np.linspace(-1, 1, n)
        Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
        return np.sqrt(X**2 + Y**2 + Z**2) - r

    def test_sphere_surface_extracted(self):
        vol = self._sphere_volume()
        verts, faces, vals = marching_tetrahedra(
            vol, 0.0, origin=(-1, -1, -1), spacing=(2 / 15, 2 / 15, 2 / 15)
        )
        assert len(faces) > 100
        radii = np.linalg.norm(verts, axis=1)
        # MT interpolates along cube body diagonals, so a curved SDF
        # gives outliers up to ~a cell diagonal; the bulk sits on r.
        assert np.median(radii) == pytest.approx(0.6, abs=0.02)
        assert radii.min() > 0.6 - 2 * 0.231 / 2   # cell body diagonal
        assert radii.max() < 0.6 + 0.231 / 2
        np.testing.assert_allclose(vals, 0.0, atol=1e-9)

    def test_no_crossing_empty(self):
        verts, faces, vals = marching_tetrahedra(np.zeros((4, 4, 4)), 5.0)
        assert len(verts) == 0 and len(faces) == 0

    def test_aux_coloring(self):
        vol = self._sphere_volume(n=8)
        g = np.linspace(-1, 1, 8)
        Z, _, _ = np.meshgrid(g, g, g, indexing="ij")
        verts, faces, vals = marching_tetrahedra(
            vol, 0.0, origin=(-1, -1, -1), spacing=(2 / 7,) * 3, aux=Z
        )
        # aux (z-coordinate) interpolated onto the surface: range ~ [-r, r]
        assert vals.min() < -0.3 and vals.max() > 0.3

    def test_faces_reference_valid_vertices(self):
        vol = self._sphere_volume(n=6)
        verts, faces, _ = marching_tetrahedra(vol, 0.0)
        if len(faces):
            assert faces.max() < len(verts)
            assert faces.min() >= 0

    def test_degenerate_volume(self):
        verts, faces, _ = marching_tetrahedra(np.zeros((1, 4, 4)), 0.5)
        assert len(faces) == 0

    def test_aux_shape_mismatch(self):
        with pytest.raises(ValueError):
            marching_tetrahedra(np.zeros((4, 4, 4)), 0.0, aux=np.zeros((3, 3, 3)))
        # checked before the degenerate-volume early return, not after
        with pytest.raises(ValueError, match="aux volume"):
            marching_tetrahedra(np.zeros((1, 4, 4)), 0.5, aux=np.zeros((3, 3, 3)))


class TestSlices:
    def _vol(self):
        # f(x, y, z) = x + 10 y + 100 z on integer lattice
        z, y, x = np.meshgrid(np.arange(4), np.arange(4), np.arange(4), indexing="ij")
        return (x + 10 * y + 100 * z).astype(float)

    def test_axis_slice_on_lattice_plane(self):
        plane = axis_slice(self._vol(), "z", 2.0)
        assert plane.shape == (4, 4)
        np.testing.assert_allclose(plane[0, 0], 200.0)

    def test_axis_slice_interpolates(self):
        plane = axis_slice(self._vol(), "z", 1.5)
        np.testing.assert_allclose(plane[0, 0], 150.0)

    def test_axis_slice_x(self):
        plane = axis_slice(self._vol(), "x", 3.0)
        assert plane.shape == (4, 4)  # [z, y]
        np.testing.assert_allclose(plane[1, 2], 3 + 20 + 100)

    def test_out_of_volume_raises(self):
        with pytest.raises(ValueError):
            axis_slice(self._vol(), "z", 99.0)

    def test_trilinear_exact_on_trilinear_function(self):
        vol = self._vol()
        pts = np.array([[0.5, 1.5, 2.5], [1.1, 0.2, 3.0]])
        vals = trilinear_sample(vol, (0, 0, 0), (1, 1, 1), pts)
        expected = pts[:, 0] + 10 * pts[:, 1] + 100 * pts[:, 2]
        np.testing.assert_allclose(vals, expected)

    def test_trilinear_outside_fill(self):
        vals = trilinear_sample(
            self._vol(), (0, 0, 0), (1, 1, 1), np.array([[99.0, 0, 0]]), fill=-7.0
        )
        assert vals[0] == -7.0


class TestRenderPipeline:
    def _image_data(self):
        n = 8
        img = ImageData((n, n, n), origin=(0, 0, 0), spacing=(1 / (n - 1),) * 3)
        g = np.linspace(0, 1, n)
        Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
        sphere = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2 + (Z - 0.5) ** 2)
        img.add_array(DataArray("phi", sphere.ravel()))
        img.add_array(DataArray("temp", Z.ravel()))
        return img

    def test_contour_plus_slice_outputs(self):
        pipe = RenderPipeline(
            specs=[
                RenderSpec(kind="contour", array="phi", isovalue=0.3,
                           color_array="temp"),
                RenderSpec(kind="slice", array="temp", axis="y"),
            ],
            width=64, height=64, name="t",
        )
        outputs = pipe.render(self._image_data(), step=5, time=0.5)
        assert [name for name, _ in outputs] == ["t_surface", "t_slice0_temp"]
        for _, img in outputs:
            assert img.shape == (64, 64, 3)
            assert img.dtype == np.uint8

    def test_surface_render_not_blank(self):
        pipe = RenderPipeline(
            specs=[RenderSpec(kind="contour", array="phi", isovalue=0.3)],
            width=48, height=48,
        )
        (_, img), = pipe.render(self._image_data(), 0, 0.0)
        assert img.std() > 1.0  # something was drawn

    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("centres,objects", [
        ([(0.5, 0.5, 0.5)], 1),
        ([(0.5, 0.5, 0.2), (0.5, 0.5, 0.8)], 2),
    ])
    def test_connected_objects_in_snapshot(self, centres, objects, naive):
        """One sphere renders as one connected blob, two disjoint
        spheres as two, on either fill path."""
        import contextlib

        from scipy import ndimage

        from repro.perf import naive_mode

        n = 24
        img = ImageData((n, n, n), origin=(0, 0, 0), spacing=(1 / (n - 1),) * 3)
        g = np.linspace(0, 1, n)
        Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
        phi = np.min([
            np.sqrt((X - x) ** 2 + (Y - y) ** 2 + (Z - z) ** 2)
            for x, y, z in centres
        ], axis=0)
        img.add_array(DataArray("phi", phi.ravel()))
        kw = dict(width=96, height=96, annotate=False)
        with naive_mode() if naive else contextlib.nullcontext():
            (_, frame), = RenderPipeline(
                specs=[RenderSpec(kind="contour", array="phi", isovalue=0.15,
                                  colormap="grayscale", vmin=-1.0, vmax=0.2)],
                **kw,
            ).render(img, 0, 0.0)
            (_, backdrop), = RenderPipeline(
                specs=[RenderSpec(kind="contour", array="phi", isovalue=9.0)], **kw,
            ).render(img, 0, 0.0)
        foreground = (frame != backdrop).any(axis=2)
        _, found = ndimage.label(foreground, structure=np.ones((3, 3)))
        assert found == objects
        assert 0.02 < foreground.mean() < 0.5

    def test_contour_requires_isovalue(self):
        with pytest.raises(ValueError):
            RenderSpec(kind="contour", array="phi")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            RenderSpec(kind="volume", array="phi")

    def test_pythonscript_render_function(self, tmp_path):
        script = tmp_path / "analysis.py"
        script.write_text(
            "import numpy as np\n"
            "def render(image, step, time):\n"
            "    return [('custom', np.zeros((8, 8, 3), dtype=np.uint8))]\n"
        )
        render = load_pipeline_script(script)
        out = render(self._image_data(), 0, 0.0)
        assert out[0][0] == "custom"

    def test_pythonscript_pipeline_object(self, tmp_path):
        script = tmp_path / "analysis.py"
        script.write_text(
            "from repro.catalyst import RenderPipeline, RenderSpec\n"
            "PIPELINE = RenderPipeline(specs=[RenderSpec(kind='slice', "
            "array='temp')], width=16, height=16)\n"
        )
        render = load_pipeline_script(script)
        out = render(self._image_data(), 0, 0.0)
        assert out[0][1].shape == (16, 16, 3)

    def test_pythonscript_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_pipeline_script("/nonexistent/analysis.py")

    def test_pythonscript_without_entry_point(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text("x = 1\n")
        with pytest.raises(ValueError):
            load_pipeline_script(script)
