"""Tests for annotations, thresholds, and annotated pipelines."""

import numpy as np
import pytest

from repro.catalyst import (
    RenderPipeline,
    RenderSpec,
    clip_box,
    draw_colorbar,
    draw_step_label,
    draw_text,
    threshold,
    threshold_by,
)
from repro.catalyst.annotations import text_extent
from repro.vtkdata import DataArray, ImageData


def blank(h=64, w=64):
    return np.zeros((h, w, 3), dtype=np.uint8)


class TestDrawText:
    def test_draws_pixels(self):
        img = blank()
        draw_text(img, 2, 2, "123")
        assert img.sum() > 0

    def test_color(self):
        img = blank()
        draw_text(img, 2, 2, "8", color=(255, 0, 0))
        assert img[:, :, 0].max() == 255
        assert img[:, :, 1].max() == 0

    def test_clipping_at_edges_no_crash(self):
        img = blank(10, 10)
        draw_text(img, -3, -3, "999")
        draw_text(img, 8, 8, "999")

    def test_unknown_chars_blank(self):
        img = blank()
        draw_text(img, 2, 2, "@#$")
        assert img.sum() == 0

    def test_inf_label_has_every_letter(self):
        img = blank(16, 32)
        draw_text(img, 0, 0, "inf")
        for cell in range(3):
            assert img[:, cell * 6 : cell * 6 + 5].any(), cell

    def test_scale(self):
        small, big = blank(), blank()
        draw_text(small, 0, 0, "1", scale=1)
        draw_text(big, 0, 0, "1", scale=3)
        assert (big > 0).sum() == 9 * (small > 0).sum()

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            draw_text(blank(), 0, 0, "1", scale=0)

    def test_extent(self):
        w, h = text_extent("abc", scale=2)
        assert w == 3 * 6 * 2
        assert h == 14


class TestColorbarAndLabel:
    def test_colorbar_draws_on_right(self):
        img = blank(80, 80)
        draw_colorbar(img, 0.0, 1.0)
        right = img[:, 60:]
        left = img[:, :30]
        assert right.sum() > left.sum()

    def test_too_narrow_raises(self):
        with pytest.raises(ValueError):
            draw_colorbar(blank(64, 8), 0, 1)

    def test_step_label(self):
        img = blank()
        draw_step_label(img, 42, 0.125)
        assert img.sum() > 0


class TestThreshold:
    def _vol(self):
        return np.arange(27, dtype=float).reshape(3, 3, 3)

    def test_band_kept(self):
        out = threshold(self._vol(), vmin=10, vmax=20)
        assert np.isnan(out[0, 0, 0])
        assert out[1, 1, 1] == 13.0
        assert np.isnan(out[2, 2, 2])

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            threshold(self._vol(), vmin=5, vmax=1)

    def test_original_untouched(self):
        vol = self._vol()
        threshold(vol, vmin=10, vmax=20)
        assert not np.isnan(vol).any()

    def test_threshold_by_selector(self):
        vol = self._vol()
        sel = np.zeros_like(vol)
        sel[1] = 5.0
        out = threshold_by(vol, sel, vmin=1.0)
        assert np.isnan(out[0]).all()
        np.testing.assert_array_equal(out[1], vol[1])

    def test_threshold_by_shape_mismatch(self):
        with pytest.raises(ValueError):
            threshold_by(self._vol(), np.zeros((2, 2, 2)))

    def test_clip_box(self):
        vol = np.ones((4, 4, 4))
        out = clip_box(
            vol, origin=(0, 0, 0), spacing=(1, 1, 1),
            box_lo=(0, 0, 0), box_hi=(1.5, 10, 10),
        )
        assert not np.isnan(out[:, :, :2]).any()   # x = 0, 1 kept
        assert np.isnan(out[:, :, 2:]).all()       # x = 2, 3 clipped


class TestAnnotatedPipeline:
    def _image(self):
        n = 6
        img = ImageData((n, n, n), spacing=(1 / (n - 1),) * 3)
        g = np.linspace(0, 1, n)
        Z, _, _ = np.meshgrid(g, g, g, indexing="ij")
        img.add_array(DataArray("t", Z.ravel()))
        return img

    def test_annotations_on_by_default(self):
        pipe = RenderPipeline(
            specs=[RenderSpec(kind="slice", array="t", axis="y")],
            width=96, height=96,
        )
        (_, with_anno), = pipe.render(self._image(), 7, 0.5)
        pipe.annotate = False
        (_, without), = pipe.render(self._image(), 7, 0.5)
        assert with_anno.sum() != without.sum()

    def test_small_frames_skip_colorbar(self):
        pipe = RenderPipeline(
            specs=[RenderSpec(kind="slice", array="t", axis="y")],
            width=48, height=48,
        )
        # must not raise even though the frame is narrow
        pipe.render(self._image(), 1, 0.0)
