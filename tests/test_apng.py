"""Tests for APNG assembly."""

import io
import struct

import numpy as np
import pytest

from repro.util.apng import ApngWriter, apng_info
from repro.util.png import decode_png, encode_png


def _frames(n=3, h=8, w=8):
    frames = []
    for i in range(n):
        f = np.zeros((h, w, 3), dtype=np.uint8)
        f[:, :, 0] = i * 40
        frames.append(f)
    return frames


def assemble_apng(frames, **kwargs) -> bytes:
    """`frames` as one APNG byte string, through the streaming writer."""
    buf = io.BytesIO()
    writer = ApngWriter(buf, **kwargs)
    for frame in frames:
        writer.add_encoded(encode_png(frame))
    writer.close()
    return buf.getvalue()


class TestAssemble:
    def test_structure(self):
        data = assemble_apng(_frames(3), delay_ms=50, loops=2)
        info = apng_info(data)
        assert info["frames"] == 3
        assert info["loops"] == 2
        assert info["fctl_count"] == 3
        assert info["fdat_count"] == 2     # all frames after the first
        assert info["width"] == 8 and info["height"] == 8

    def test_single_frame(self):
        data = assemble_apng(_frames(1))
        info = apng_info(data)
        assert info["frames"] == 1
        assert info["fdat_count"] == 0

    def test_default_image_decodes_as_first_frame(self):
        frames = _frames(3)
        data = assemble_apng(frames)
        np.testing.assert_array_equal(decode_png(data), frames[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble_apng([])

    def test_shape_mismatch_rejected(self):
        frames = _frames(2) + [np.zeros((4, 4, 3), dtype=np.uint8)]
        with pytest.raises(ValueError):
            assemble_apng(frames)

    def test_bad_delay(self):
        with pytest.raises(ValueError):
            assemble_apng(_frames(2), delay_ms=0)

    def test_grayscale_frames(self):
        frames = [np.full((6, 6), i * 60, dtype=np.uint8) for i in range(3)]
        info = apng_info(assemble_apng(frames))
        assert info["frames"] == 3

    def test_not_animated_detected(self):
        with pytest.raises(ValueError, match="acTL"):
            apng_info(encode_png(_frames(1)[0]))


class TestWriter:
    """The incremental form: open -> add_encoded -> close."""

    def test_add_encoded_splices_without_reencoding(self):
        pngs = [encode_png(f) for f in _frames(3)]
        buf = io.BytesIO()
        with ApngWriter(buf) as w:
            for png in pngs:
                w.add_encoded(png)
        data = buf.getvalue()
        for png in pngs:
            at = png.index(b"IDAT")
            (length,) = struct.unpack(">I", png[at - 4:at])
            assert png[at + 4:at + 4 + length] in data

    def test_frame_count_patched_on_close(self):
        buf = io.BytesIO()
        w = ApngWriter(buf)
        for f in _frames(5):
            w.add_encoded(encode_png(f))
        w.close()
        assert apng_info(buf.getvalue())["frames"] == 5

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "w.apng"
        with ApngWriter(path) as w:
            for f in _frames(2):
                w.add_encoded(encode_png(f))
        info = apng_info(path.read_bytes())
        assert info["frames"] == 2

    def test_close_returns_bytes_written(self, tmp_path):
        path = tmp_path / "w.apng"
        w = ApngWriter(path)
        w.add_encoded(encode_png(_frames(1)[0]))
        n = w.close()
        assert path.stat().st_size == n

    def test_no_frames_rejected(self):
        w = ApngWriter(io.BytesIO())
        with pytest.raises(ValueError, match="at least one frame"):
            w.close()

    def test_add_after_close_rejected(self):
        w = ApngWriter(io.BytesIO())
        w.add_encoded(encode_png(_frames(1)[0]))
        w.close()
        with pytest.raises(ValueError, match="closed"):
            w.add_encoded(encode_png(_frames(1)[0]))

    def test_shape_mismatch_rejected(self):
        w = ApngWriter(io.BytesIO())
        w.add_encoded(encode_png(np.zeros((8, 8, 3), dtype=np.uint8)))
        with pytest.raises(ValueError, match="IHDR mismatch"):
            w.add_encoded(encode_png(np.zeros((4, 4, 3), dtype=np.uint8)))

    def test_non_png_bytes_rejected(self):
        w = ApngWriter(io.BytesIO())
        with pytest.raises(ValueError, match="PNG bytes"):
            w.add_encoded(b"not a png at all")


class TestAwkwardGeometries:
    """Degenerate and odd shapes that stress stride/filter handling."""

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 7), (7, 1), (3, 5), (1, 1, 3), (1, 9, 3),
         (9, 1, 3), (5, 13, 3), (1, 1, 4), (3, 7, 4)],
        ids=str,
    )
    def test_png_roundtrip(self, shape):
        rng = np.random.default_rng(sum(shape))
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        out = decode_png(encode_png(img))
        np.testing.assert_array_equal(out, img.reshape(out.shape))

    @pytest.mark.parametrize("shape", [(1, 1, 3), (1, 5, 3), (5, 1, 3)], ids=str)
    def test_apng_structure(self, shape):
        frames = [
            np.full(shape, i * 30, dtype=np.uint8) for i in range(4)
        ]
        info = apng_info(assemble_apng(frames))
        assert info["frames"] == 4
        assert (info["width"], info["height"]) == (shape[1], shape[0])

    def test_fdat_sequence_numbers_exceed_a_byte(self):
        """>255 frames: fdAT sequence numbers must be real 32-bit ints.

        With N frames there are N fcTL + (N-1) fdAT chunks sharing one
        sequence-number space, so the last fdAT carries 2N - 2.
        """
        n = 260
        frames = [
            np.array([[[i % 256, 0, 0]]], dtype=np.uint8) for i in range(n)
        ]
        info = apng_info(assemble_apng(frames, delay_ms=1))
        assert info["frames"] == n
        assert info["fdat_count"] == n - 1
        seqs = info["fdat_sequences"]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 2 * n - 2
        assert seqs[-1] > 255
