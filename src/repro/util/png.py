"""Minimal dependency-free PNG encoder/decoder.

The Catalyst analysis adaptor writes real image files so the storage
economy experiment (6.5 MB of images vs 19 GB of checkpoints) measures
genuine bytes on disk.  Only what the renderer needs is implemented:
8-bit RGB / RGBA / grayscale, non-interlaced, zlib-compressed, with the
per-scanline filters required for decent compression of smooth renders.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# PNG color types for the sample counts we support.
_COLOR_TYPE = {1: 0, 3: 2, 4: 6}
_CHANNELS = {0: 1, 2: 3, 6: 4}

#: the zlib level of every PNG (zlib's own default)
_COMPRESS_LEVEL = 6


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(image: np.ndarray) -> bytes:
    """Encode an ``(H, W)`` or ``(H, W, C)`` uint8 array as PNG bytes.

    C may be 1 (grayscale), 3 (RGB) or 4 (RGBA).  Each scanline is
    preceded by filter type 1 ("Sub"), which captures the horizontal
    smoothness typical of rendered imagery and compresses far better
    than filter 0 on pseudocolored output.
    """
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise TypeError(f"PNG encoder expects uint8 pixels, got {img.dtype}")
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in _COLOR_TYPE:
        raise ValueError(f"unsupported image shape {image.shape}")
    h, w, c = img.shape
    if h == 0 or w == 0:
        raise ValueError("image must have nonzero dimensions")
    color_type = _COLOR_TYPE[c]

    # Filter type 1 (Sub): each byte minus the byte `c` samples to its
    # left, written straight into the scanlines (uint8 wraps mod 256).
    raw = np.empty((h, 1 + w * c), dtype=np.uint8)
    raw[:, 0] = 1
    lines = raw[:, 1:].reshape(h, w, c)
    lines[:, 0] = img[:, 0]
    np.subtract(img[:, 1:], img[:, :-1], out=lines[:, 1:])

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    idat = zlib.compress(raw, _COMPRESS_LEVEL)
    return b"".join(
        [
            _SIGNATURE,
            _chunk(b"IHDR", ihdr),
            _chunk(b"IDAT", idat),
            _chunk(b"IEND", b""),
        ]
    )


def write_png(path, image: np.ndarray) -> int:
    """Write *image* to *path*; returns the number of bytes written."""
    data = encode_png(image)
    with open(path, "wb") as f:
        f.write(data)
    return len(data)


def _unfilter(raw: np.ndarray, h: int, w: int, c: int) -> np.ndarray:
    """Reverse PNG scanline filters (types 0-4)."""
    stride = w * c
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        ftype = raw[y, 0]
        line = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, np.int32)
        cur = np.zeros(stride, dtype=np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 2:  # Up
            cur = (line + prev) % 256
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need a left scan
            for x in range(stride):
                a = cur[x - c] if x >= c else 0
                b = prev[x]
                if ftype == 1:
                    cur[x] = (line[x] + a) % 256
                elif ftype == 3:
                    cur[x] = (line[x] + (a + b) // 2) % 256
                else:
                    cc = prev[x - c] if x >= c else 0
                    p = a + b - cc
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                    if pa <= pb and pa <= pc:
                        pred = a
                    elif pb <= pc:
                        pred = b
                    else:
                        pred = cc
                    cur[x] = (line[x] + pred) % 256
        else:
            raise ValueError(f"unsupported PNG filter type {ftype}")
        out[y] = cur.astype(np.uint8)
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes produced by :func:`encode_png` (8-bit, no interlace).

    Returns an ``(H, W)`` array for grayscale or ``(H, W, C)`` otherwise.
    Used by tests to round-trip rendered imagery.
    """
    if data[:8] != _SIGNATURE:
        raise ValueError("not a PNG file")
    pos = 8
    width = height = None
    color_type = None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            width, height, depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if depth != 8 or interlace != 0:
                raise ValueError("decoder supports 8-bit non-interlaced PNG only")
            if color_type not in _CHANNELS:
                raise ValueError(f"unsupported color type {color_type}")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if width is None or color_type is None:
        raise ValueError("missing IHDR chunk")
    c = _CHANNELS[color_type]
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    raw = raw.reshape(height, 1 + width * c)
    out = _unfilter(raw, height, width, c).reshape(height, width, c)
    return out[:, :, 0] if c == 1 else out
