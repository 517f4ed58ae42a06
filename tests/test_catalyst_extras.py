"""Tests for annotations and annotated pipelines."""

import numpy as np
import pytest

from repro.catalyst import (
    RenderPipeline,
    RenderSpec,
    draw_colorbar,
    draw_step_label,
    draw_text,
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
        draw_text(img, 2, 2, "8")
        assert img.max() == 255
        assert (img == img[..., :1]).all()   # white: every channel equal

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

    def test_extent(self):
        w, h = text_extent("abc")
        assert w == 3 * 6
        assert h == 7


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
        (_, step7), = pipe.render(self._image(), 7, 0.5)
        (_, step8), = pipe.render(self._image(), 8, 0.5)
        # the burned-in step label is the only difference
        differs = (step7 != step8).any(axis=2)
        assert differs.any()
        assert not differs[20:].any() and not differs[:, 70:].any()

    def test_small_frames_skip_colorbar(self):
        pipe = RenderPipeline(
            specs=[RenderSpec(kind="slice", array="t", axis="y")],
            width=48, height=48,
        )
        # must not raise even though the frame is narrow
        pipe.render(self._image(), 1, 0.0)
