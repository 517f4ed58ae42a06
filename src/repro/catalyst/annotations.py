"""Image annotations: bitmap text, step/time labels, colorbars.

Production in situ frames carry burned-in annotations (timestep, time,
a colorbar with its range) because nobody can re-render a frame whose
simulation state is gone.  A tiny built-in 5x7 bitmap font covers the
characters annotations need; no font files, no dependencies.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.catalyst.colormaps import apply_colormap

# 5x7 bitmap glyphs, rows top->bottom, 5-bit binary strings per row.
_GLYPHS: dict[str, tuple[str, ...]] = {
    "0": ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    "1": ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    "2": ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    "3": ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    "4": ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    "5": ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    "6": ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    "7": ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    "8": ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    "9": ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
    ".": ("00000", "00000", "00000", "00000", "00000", "01100", "01100"),
    "-": ("00000", "00000", "00000", "01110", "00000", "00000", "00000"),
    "+": ("00000", "00100", "00100", "11111", "00100", "00100", "00000"),
    ":": ("00000", "01100", "01100", "00000", "01100", "01100", "00000"),
    "=": ("00000", "00000", "11111", "00000", "11111", "00000", "00000"),
    " ": ("00000",) * 7,
    "e": ("00000", "00000", "01110", "10001", "11111", "10000", "01110"),
    "s": ("00000", "00000", "01111", "10000", "01110", "00001", "11110"),
    "t": ("01000", "01000", "11100", "01000", "01000", "01001", "00110"),
    "p": ("00000", "00000", "11110", "10001", "11110", "10000", "10000"),
    "i": ("00100", "00000", "01100", "00100", "00100", "00100", "01110"),
    "m": ("00000", "00000", "11010", "10101", "10101", "10101", "10101"),
    "x": ("00000", "00000", "10001", "01010", "00100", "01010", "10001"),
    "y": ("00000", "00000", "10001", "10001", "01111", "00001", "01110"),
    "z": ("00000", "00000", "11111", "00010", "00100", "01000", "11111"),
    "a": ("00000", "00000", "01110", "00001", "01111", "10001", "01111"),
    "n": ("00000", "00000", "11110", "10001", "10001", "10001", "10001"),
    "r": ("00000", "00000", "10110", "11001", "10000", "10000", "10000"),
    "u": ("00000", "00000", "10001", "10001", "10001", "10011", "01101"),
    "c": ("00000", "00000", "01110", "10001", "10000", "10001", "01110"),
    "o": ("00000", "00000", "01110", "10001", "10001", "10001", "01110"),
    "d": ("00001", "00001", "01111", "10001", "10001", "10001", "01111"),
    "f": ("00110", "01001", "01000", "11100", "01000", "01000", "01000"),
    "l": ("01100", "00100", "00100", "00100", "00100", "00100", "01110"),
}

GLYPH_WIDTH = 5
GLYPH_HEIGHT = 7

# Boolean glyph atlas, (glyphs, rows, GLYPH_WIDTH + 1): the last column
# is the blank advance gap, so a string's mask is its glyphs side by side.
_INDEX = {ch: i for i, ch in enumerate(_GLYPHS)}
_ATLAS = np.array(
    [[[bit == "1" for bit in row + "0"] for row in g] for g in _GLYPHS.values()]
)
_ATLAS.flags.writeable = False


#: annotation text is white
_TEXT_COLOR = 255
#: the gap (pixels) between an annotation and the frame's edge, and the
#: colorbar's width
_MARGIN = 6
_BAR_WIDTH = 12


def text_extent(text: str) -> tuple[int, int]:
    """(width, height) in pixels of rendered `text`."""
    return (len(text) * (GLYPH_WIDTH + 1), GLYPH_HEIGHT)


def draw_text(image: np.ndarray, x: int, y: int, text: str) -> np.ndarray:
    """Draw `text` with its top-left corner at (x, y); clips at edges.

    Unknown characters render as blanks rather than raising — an
    annotation must never kill a render.
    """
    chars = text.lower()
    if not chars:
        return image
    blank = _INDEX[" "]
    glyphs = _ATLAS[[_INDEX.get(ch, blank) for ch in chars]]
    mask = glyphs.transpose(1, 0, 2).reshape(GLYPH_HEIGHT, -1)
    h, w = image.shape[:2]
    y0, x0 = max(y, 0), max(x, 0)
    y1, x1 = min(y + mask.shape[0], h), min(x + mask.shape[1], w)
    if y1 > y0 and x1 > x0:
        region = image[y0:y1, x0:x1]
        region[mask[y0 - y : y1 - y, x0 - x : x1 - x]] = _TEXT_COLOR
    return image


def _format_value(v: float) -> str:
    if v == 0:
        return "0"
    if 0.01 <= abs(v) < 10000:
        return f"{v:.3g}"
    return f"{v:.1e}"


@functools.lru_cache(maxsize=32)
def _colorbar_ramp(bar_h: int, colormap: str) -> np.ndarray:
    """Read-only ``(bar_h, 3)`` colorbar colours, top (high) to bottom."""
    colors = apply_colormap(np.linspace(1.0, 0.0, bar_h), 0.0, 1.0, colormap)
    colors.flags.writeable = False
    return colors


def draw_colorbar(
    image: np.ndarray,
    vmin: float,
    vmax: float,
    colormap: str = "viridis",
) -> np.ndarray:
    """Vertical colorbar on the right edge with min/max labels."""
    width, margin = _BAR_WIDTH, _MARGIN
    h, w = image.shape[:2]
    bar_h = max(h - 2 * margin - 2 * GLYPH_HEIGHT - 4, 8)
    top = margin + GLYPH_HEIGHT + 2
    left = w - margin - width
    if left < 0:
        raise ValueError("image too narrow for a colorbar")
    image[top : top + bar_h, left : left + width] = _colorbar_ramp(
        bar_h, colormap
    )[:, None, :]
    # thin border
    image[top - 1, left - 1 : left + width + 1] = 255
    image[top + bar_h, left - 1 : left + width + 1] = 255
    image[top - 1 : top + bar_h + 1, left - 1] = 255
    image[top - 1 : top + bar_h + 1, left + width] = 255
    hi_label = _format_value(vmax)
    lo_label = _format_value(vmin)
    draw_text(image, left + width - text_extent(hi_label)[0], margin, hi_label)
    draw_text(
        image,
        left + width - text_extent(lo_label)[0],
        top + bar_h + 3,
        lo_label,
    )
    return image


def draw_step_label(image: np.ndarray, step: int, time: float) -> np.ndarray:
    """Burn "step N  t=T" into the top-left corner."""
    label = f"step {step}  t={_format_value(time)}"
    return draw_text(image, _MARGIN, _MARGIN, label)
