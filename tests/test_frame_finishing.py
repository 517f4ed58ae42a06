"""Byte oracles for the frame-finishing code: text, colorbar, backdrop,
colormap, slice resize and the PNG Up filter.

Each reference below is the straightforward per-bit / float / int16 /
fused-gather formulation the vectorised or cached version replaced;
the rendered bytes must not move.
"""

import numpy as np
import pytest

from repro.catalyst import apply_colormap, colormap_names, draw_colorbar, draw_text
from repro.catalyst.annotations import (
    _GLYPHS,
    GLYPH_WIDTH,
    _colorbar_ramp,
    _format_value,
)
from repro.catalyst.pipeline import _resize_nearest
from repro.catalyst.rasterizer import _gradient_rows, apply_background_gradient
from repro.util.png import _chunk, decode_png, encode_png


def draw_text_reference(image, x, y, text, color=(255, 255, 255), scale=1):
    h, w = image.shape[:2]
    col = np.asarray(color, dtype=np.uint8)
    cx = x
    for ch in text.lower():
        glyph = _GLYPHS.get(ch, _GLYPHS[" "])
        for gy, row in enumerate(glyph):
            for gx, bit in enumerate(row):
                if bit != "1":
                    continue
                py0 = y + gy * scale
                px0 = cx + gx * scale
                py1, px1 = py0 + scale, px0 + scale
                if px1 <= 0 or py1 <= 0 or px0 >= w or py0 >= h:
                    continue
                image[max(py0, 0) : min(py1, h), max(px0, 0) : min(px1, w)] = col
        cx += (GLYPH_WIDTH + 1) * scale
    return image


def gradient_reference(color, depth, top, bottom):
    height, width = depth.shape
    t = np.linspace(0.0, 1.0, height)[:, None, None]
    grad = (1 - t) * np.asarray(top, float) + t * np.asarray(bottom, float)
    untouched = ~np.isfinite(depth)
    color[untouched] = np.broadcast_to(grad, (height, width, 3))[untouched].astype(
        np.uint8
    )


def colormap_reference(values, vmin=None, vmax=None, name="viridis"):
    from repro.catalyst.colormaps import _MAPS

    table = _MAPS[name]
    vals = np.asarray(values, dtype=float)
    nan_mask = ~np.isfinite(vals)
    lo = float(np.nanmin(vals)) if vmin is None else float(vmin)
    hi = float(np.nanmax(vals)) if vmax is None else float(vmax)
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        t = np.zeros_like(vals)
    else:
        t = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    t = np.where(nan_mask, 0.0, t)
    pos = t * (len(table) - 1)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, len(table) - 1)
    frac = (pos - i0)[..., None]
    rgb = table[i0] * (1.0 - frac) + table[i1] * frac
    rgb[nan_mask] = 0.5
    return (rgb * 255.0 + 0.5).astype(np.uint8)


def encode_png_reference(image, compress_level=3):
    import struct
    import zlib

    img = np.asarray(image)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    up = np.zeros_like(img)
    up[1:] = img[:-1]
    filtered = (img.astype(np.int16) - up.astype(np.int16)) % 256
    raw = np.empty((h, 1 + w * c), dtype=np.uint8)
    raw[:, 0] = 2
    raw[:, 1:] = filtered.astype(np.uint8).reshape(h, w * c)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, {1: 0, 3: 2, 4: 6}[c], 0, 0, 0)
    idat = zlib.compress(raw.tobytes(), compress_level)
    return b"".join(
        [
            b"\x89PNG\r\n\x1a\n",
            _chunk(b"IHDR", ihdr),
            _chunk(b"IDAT", idat),
            _chunk(b"IEND", b""),
        ]
    )


# glyphs, unknown characters, and one whose lower() is two characters
_CHARS = "".join(_GLYPHS) + "ABZ@#?_/İ"


class TestDrawTextOracle:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (128, 128)])
    def test_matches_per_bit_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        h, w = shape
        for _ in range(150):
            text = "".join(rng.choice(list(_CHARS), size=int(rng.integers(1, 9))))
            x = int(rng.integers(-40, w + 1))
            y = int(rng.integers(-40, h + 1))
            base = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            got = draw_text(base.copy(), x, y, text)
            want = draw_text_reference(base.copy(), x, y, text)
            assert got.tobytes() == want.tobytes(), (text, x, y)

    def test_clipped_on_every_edge(self):
        for x, y in [(-4, 2), (2, -4), (60, 2), (2, 60), (-4, -4), (60, 60)]:
            got = np.zeros((64, 64, 3), np.uint8)
            want = got.copy()
            draw_text(got, x, y, "8888888888888")
            draw_text_reference(want, x, y, "8888888888888")
            assert got.any() and got.tobytes() == want.tobytes()

    def test_empty_string_is_noop(self):
        img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        before = img.copy()
        assert draw_text(img, 0, 0, "") is img
        np.testing.assert_array_equal(img, before)


class TestCachedFinishing:
    def test_colorbar_ramp_is_read_only(self):
        ramp = _colorbar_ramp(50, "viridis")
        with pytest.raises(ValueError):
            ramp[0] = 0

    def test_gradient_rows_are_read_only(self):
        rows = _gradient_rows(16)
        with pytest.raises(ValueError):
            rows[0] = 0

    @pytest.mark.parametrize("height", [1, 2, 128, 256])
    def test_gradient_matches_float_formula(self, height):
        rng = np.random.default_rng(height)
        width = 37
        depth = np.where(
            rng.random((height, width)) < 0.5, np.inf, rng.random((height, width))
        )
        depth[0, 0] = np.nan
        base = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        got, want = base.copy(), base.copy()
        apply_background_gradient(got, depth)
        gradient_reference(want, depth, (30, 36, 48), (8, 10, 14))
        assert got.tobytes() == want.tobytes()

    def test_colorbar_colormaps_do_not_share_a_ramp(self):
        # 96x96 frame: bar rows 15..81, columns 78..90
        _colorbar_ramp.cache_clear()
        for name in ("viridis", "plasma", "viridis", "coolwarm"):
            img = np.zeros((96, 96, 3), np.uint8)
            draw_colorbar(img, -1.0, 2.0, name)
            ramp = apply_colormap(np.linspace(1.0, 0.0, 66), 0.0, 1.0, name)
            expected = np.broadcast_to(ramp[:, None], (66, 12, 3))
            np.testing.assert_array_equal(img[15:81, 78:90], expected)


class TestColormapOracle:
    @pytest.mark.filterwarnings("ignore:All-NaN slice")
    @pytest.mark.parametrize("name", colormap_names())
    def test_bitwise_equal(self, name):
        rng = np.random.default_rng(3)
        with_nan = rng.normal(size=200)
        with_nan[::7] = np.nan
        with_inf = rng.normal(size=(10, 10))
        with_inf[1, 2], with_inf[3, 4] = np.inf, -np.inf
        inputs = [
            rng.normal(size=500),
            rng.normal(size=(12, 9)),
            with_nan,
            with_inf,
            np.full(9, 2.5),
            np.array([np.nan, np.nan]),
        ]
        for vals in inputs:
            for vmin, vmax in [(None, None), (-0.5, 0.5), (0.0, None), (1.0, 1.0)]:
                got = apply_colormap(vals, vmin, vmax, name)
                want = colormap_reference(vals, vmin, vmax, name)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_input_not_mutated(self):
        vals = np.linspace(-1.0, 1.0, 11)
        before = vals.copy()
        apply_colormap(vals)
        np.testing.assert_array_equal(vals, before)


@pytest.mark.parametrize("src", [(1, 1), (12, 24), (24, 12), (200, 300)])
@pytest.mark.parametrize("dst", [(1, 1), (128, 128), (256, 64)])
def test_resize_matches_fused_gather(src, dst):
    rng = np.random.default_rng(src[0] * dst[1])
    img = rng.integers(0, 256, src + (3,), dtype=np.uint8)[::-1]
    h, w = src
    rows = np.clip((np.arange(dst[0]) * h) // dst[0], 0, h - 1)
    cols = np.clip((np.arange(dst[1]) * w) // dst[1], 0, w - 1)
    got = _resize_nearest(img, *dst)
    assert got.flags.c_contiguous
    assert got.tobytes() == img[np.ix_(rows, cols)].tobytes()


class TestPngOracle:
    @pytest.mark.parametrize("channels", [1, 3, 4])
    @pytest.mark.parametrize("width", [1, 2, 17])
    def test_matches_int16_filter(self, channels, width):
        rng = np.random.default_rng(channels * 100 + width)
        img = rng.integers(0, 256, (9, width, channels), dtype=np.uint8)
        for view in [img, img[::-1], img[:, ::2], img[:, :, 0]]:
            data = encode_png(view)
            assert data == encode_png_reference(view)
            decoded = decode_png(data)
            np.testing.assert_array_equal(decoded, view.reshape(decoded.shape))


def test_format_value_inf_has_every_glyph():
    for v in (np.inf, -np.inf, np.nan):
        assert all(ch in _GLYPHS for ch in _format_value(v))
