"""Animated PNG (APNG) assembly, written incrementally.

In situ rendering produces frame sequences; APNG packs them into a
single self-playing file every browser renders — no video codec, no
dependency, just three extra chunk types on top of PNG:

- ``acTL``: animation control (frame count, loop count),
- ``fcTL``: one frame-control chunk per frame (dimensions, delay),
- ``fdAT``: frame data (an IDAT with a sequence number prefix) for
  every frame after the first.

All frames must share dimensions; the first frame doubles as the
still image shown by non-animated decoders.

:class:`ApngWriter` is the streaming form (open → ``add_encoded`` →
``close``): frames are written as they arrive — the serving
transport's history replay never holds the whole animation in memory —
and the frame count is patched into the reserved ``acTL`` slot at
close (one seek; any ``BytesIO`` or real file qualifies).
``add_encoded`` splices already-encoded PNG bytes chunk-by-chunk with
no re-encode, which is how the frame hub's PNG-deduped history becomes
an APNG for free.
"""

from __future__ import annotations

import struct

from repro.util.png import _chunk

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _split_chunks(png: bytes):
    """Yield (tag, payload) for each chunk of a PNG byte string."""
    pos = 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos : pos + 4])
        tag = png[pos + 4 : pos + 8]
        payload = png[pos + 8 : pos + 8 + length]
        yield tag, payload
        pos += 12 + length


class ApngWriter:
    """Incrementally write an APNG to a seekable binary stream or path.

    Usage::

        with ApngWriter(path, delay_ms=80) as w:
            for png in frames:          # encoded PNG bytes
                w.add_encoded(png)

    The header (signature, IHDR, ``acTL``) is emitted on the first
    frame; ``close`` appends ``IEND`` and patches the real frame count
    into the ``acTL`` reservation, so the stream must be seekable (a
    file opened ``"wb"`` or a ``BytesIO`` — not a socket; transports
    assemble into a buffer first).
    """

    def __init__(self, fp, delay_ms: int = 100, loops: int = 0):
        if delay_ms < 1:
            raise ValueError("delay_ms must be >= 1")
        if isinstance(fp, (str, bytes)) or hasattr(fp, "__fspath__"):
            self._fp = open(fp, "wb")
            self._owns_fp = True
        else:
            self._fp = fp
            self._owns_fp = False
        self.delay_ms = delay_ms
        self.loops = loops
        self.frames = 0
        self._seq = 0
        self._ihdr: bytes | None = None
        self._actl_pos: int | None = None
        self._bytes_written = 0
        self._closed = False

    # -- adding frames -----------------------------------------------------

    def add_encoded(self, png: bytes) -> None:
        """Append one frame from already-encoded PNG bytes (no re-encode).

        The PNG's IHDR must match the first frame's exactly (same
        dimensions, bit depth, and color type).
        """
        if self._closed:
            raise ValueError("writer is closed")
        if png[:8] != _SIGNATURE:
            raise ValueError("add_encoded expects PNG bytes")
        chunks = list(_split_chunks(png))
        ihdr = next((p for t, p in chunks if t == b"IHDR"), None)
        if ihdr is None:
            raise ValueError("PNG has no IHDR chunk")
        if self._ihdr is None:
            self._ihdr = ihdr
            self._write(_SIGNATURE)
            self._write(_chunk(b"IHDR", ihdr))
            self._actl_pos = self._tell()
            self._write(_chunk(b"acTL", struct.pack(">II", 0, self.loops)))
        elif ihdr != self._ihdr:
            raise ValueError(
                "frames must share a shape (IHDR mismatch: "
                f"{struct.unpack('>II', ihdr[:8])} vs "
                f"{struct.unpack('>II', self._ihdr[:8])})"
            )
        self._write(self._fctl())
        first = self.frames == 0
        for tag, payload in chunks:
            if tag != b"IDAT":
                continue
            if first:
                self._write(_chunk(b"IDAT", payload))
            else:
                self._write(
                    _chunk(b"fdAT", struct.pack(">I", self._seq) + payload)
                )
                self._seq += 1
        self.frames += 1

    def _fctl(self) -> bytes:
        width, height = struct.unpack(">II", self._ihdr[:8])
        payload = struct.pack(
            ">IIIIIHHBB",
            self._seq, width, height, 0, 0,    # full-frame replace at (0, 0)
            self.delay_ms, 1000,               # delay as a fraction of a second
            0,                                 # dispose: none
            0,                                 # blend: source
        )
        self._seq += 1
        return _chunk(b"fcTL", payload)

    # -- finishing ---------------------------------------------------------
    def close(self) -> int:
        """Write IEND, patch the frame count, return total bytes written."""
        if self._closed:
            return self._bytes_written
        self._closed = True
        if self.frames == 0:
            if self._owns_fp:
                self._fp.close()
            raise ValueError("need at least one frame")
        self._write(_chunk(b"IEND", b""))
        end = self._tell()
        self._fp.seek(self._actl_pos)
        self._fp.write(_chunk(b"acTL", struct.pack(">II", self.frames, self.loops)))
        self._fp.seek(end)
        if self._owns_fp:
            self._fp.close()
        return self._bytes_written

    def __enter__(self) -> "ApngWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.close()
        elif self._owns_fp:
            self._fp.close()
        return False

    # -- plumbing ----------------------------------------------------------
    def _write(self, data: bytes) -> None:
        self._fp.write(data)
        self._bytes_written += len(data)

    def _tell(self) -> int:
        return self._fp.tell()


def apng_info(data: bytes) -> dict:
    """Parse an APNG's animation structure (for tests/tools).

    Returns {frames, loops, width, height, fctl_count, fdat_count,
    fdat_sequences}.
    """
    if data[:8] != _SIGNATURE:
        raise ValueError("not a PNG/APNG")
    info = {"fctl_count": 0, "fdat_count": 0, "fdat_sequences": []}
    for tag, payload in _split_chunks(data):
        if tag == b"IHDR":
            info["width"], info["height"] = struct.unpack(">II", payload[:8])
        elif tag == b"acTL":
            info["frames"], info["loops"] = struct.unpack(">II", payload)
        elif tag == b"fcTL":
            info["fctl_count"] += 1
        elif tag == b"fdAT":
            info["fdat_count"] += 1
            info["fdat_sequences"].append(struct.unpack(">I", payload[:4])[0])
    if "frames" not in info:
        raise ValueError("no acTL chunk: not an animated PNG")
    return info
