"""Minimal dependency-free PNG encoder/decoder.

The Catalyst analysis adaptor writes real image files so the storage
economy experiment (6.5 MB of images vs 19 GB of checkpoints) measures
genuine bytes on disk.  Only what the renderer needs is implemented:
8-bit RGB / RGBA / grayscale, non-interlaced, zlib-compressed.  Every
scanline carries the Up filter at zlib level 3, the setting chosen by
measurement over seeded in situ, in transit and serving frames
(docs/performance.md, "PNG filter and zlib level, by measurement").
The decoder reads any of the five standard filters and raises
``ValueError`` on every malformed input.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# PNG color types for the sample counts we support.
_COLOR_TYPE = {1: 0, 3: 2, 4: 6}
_CHANNELS = {0: 1, 2: 3, 6: 4}

#: the filter type byte of every scanline (2, "Up")
_FILTER = 2
#: the zlib level of every PNG
_COMPRESS_LEVEL = 3


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
    preceded by filter type 2 ("Up"): each byte minus the one above it.
    On rendered frames, Up at zlib level 3 writes about the bytes that
    Sub at level 6 does, in a third to a half of the time, and it
    decodes a row at a time.
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

    # Up: the first row's prior row is zero; uint8 subtraction is the
    # filter's mod 256, written straight into the scanlines
    raw = np.empty((h, 1 + w * c), dtype=np.uint8)
    raw[:, 0] = _FILTER
    lines = raw[:, 1:].reshape(h, w, c)
    lines[0] = img[0]
    np.subtract(img[1:], img[:-1], out=lines[1:])

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


def _read_chunks(data: bytes):
    """Yield ``(tag, payload)`` for each chunk up to and including IEND.

    Raises ``ValueError`` on a missing signature, a chunk that runs past
    the end of *data*, a CRC mismatch or a missing IEND.
    """
    if data[:8] != _SIGNATURE:
        raise ValueError("not a PNG file")
    pos = 8
    while True:
        if pos + 12 > len(data):
            raise ValueError("truncated PNG: no IEND chunk")
        length, tag = struct.unpack_from(">I4s", data, pos)
        end = pos + 8 + length
        if end + 4 > len(data):
            raise ValueError(f"truncated PNG: {tag!r} chunk runs past the end")
        payload = data[pos + 8 : end]
        (crc,) = struct.unpack_from(">I", data, end)
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != crc:
            raise ValueError(f"CRC mismatch in {tag!r} chunk")
        yield tag, payload
        if tag == b"IEND":
            return
        pos = end + 4


def _unfilter(raw: np.ndarray, h: int, w: int, c: int) -> np.ndarray:
    """Reverse PNG scanline filters (types 0-4)."""
    stride = w * c
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        ftype = raw[y, 0]
        line = raw[y, 1:]
        if ftype == 0:
            out[y] = line
        elif ftype == 1:  # Sub: a running sum over each channel, mod 256
            out[y] = np.cumsum(line.reshape(w, c), axis=0, dtype=np.uint8).ravel()
        elif ftype == 2:  # Up
            np.add(line, prev, out=out[y])
        elif ftype in (3, 4):  # Average / Paeth need a left scan
            line = line.astype(np.int32)
            cur = np.zeros(stride, dtype=np.int32)
            up = prev.astype(np.int32)
            for x in range(stride):
                a = cur[x - c] if x >= c else 0
                b = up[x]
                if ftype == 3:
                    cur[x] = (line[x] + (a + b) // 2) % 256
                else:
                    cc = up[x - c] if x >= c else 0
                    p = a + b - cc
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                    if pa <= pb and pa <= pc:
                        pred = a
                    elif pb <= pc:
                        pred = b
                    else:
                        pred = cc
                    cur[x] = (line[x] + pred) % 256
            out[y] = cur
        else:
            raise ValueError(f"unsupported PNG filter type {ftype}")
        prev = out[y]
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes produced by :func:`encode_png` (8-bit, no interlace).

    Returns an ``(H, W)`` array for grayscale or ``(H, W, C)`` otherwise.
    Any malformed input (truncated, bit-flipped, lying chunk length,
    bad zlib stream, wrong pixel count) raises ``ValueError``.  The
    benchmark harness uses it to check every workload's frames.
    """
    header = None
    idat = []
    for tag, payload in _read_chunks(data):
        if header is None:
            if tag != b"IHDR" or len(payload) != 13:
                raise ValueError("first chunk is not a 13-byte IHDR")
            header = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat.append(payload)
    width, height, depth, color_type, _, _, interlace = header
    if depth != 8 or interlace != 0:
        raise ValueError("decoder supports 8-bit non-interlaced PNG only")
    if color_type not in _CHANNELS:
        raise ValueError(f"unsupported color type {color_type}")
    if width == 0 or height == 0:
        raise ValueError("image must have nonzero dimensions")
    c = _CHANNELS[color_type]
    expected = height * (1 + width * c)
    stream = b"".join(idat)
    # deflate expands at most 1032-fold, so a larger IHDR is a lie; the
    # bounded inflate cannot allocate past the image either way
    if expected > 1032 * len(stream):
        raise ValueError(f"IDAT of {len(stream)} bytes cannot hold {expected}")
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(stream, expected)
        complete = inflate.eof
    except zlib.error as exc:
        raise ValueError(f"bad IDAT stream: {exc}") from None
    if len(raw) != expected or not complete:
        raise ValueError(
            f"IDAT holds {len(raw)} bytes{'' if complete else ' (stream unfinished)'}, "
            f"expected {expected}"
        )
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + width * c)
    out = _unfilter(raw, height, width, c).reshape(height, width, c)
    return out[:, :, 0] if c == 1 else out
