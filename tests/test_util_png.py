"""Tests for the PNG encoder/decoder."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.codec import CodecSpec
from repro.insitu import Bridge, InTransitRunner
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import pebble_bed_case, weak_scaled_rbc_case
from repro.occa import Device
from repro.parallel import run_spmd
from repro.util.png import _chunk, decode_png, encode_png, write_png


def _random_image(rng, h, w, c):
    img = rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)
    return img[:, :, 0] if c == 1 else img


class TestEncode:
    def test_signature(self, rng):
        data = encode_png(_random_image(rng, 4, 4, 3))
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        assert data.endswith(b"IEND" + data[-4:])

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            encode_png(np.zeros((4, 4, 3)))

    def test_rejects_bad_channels(self):
        with pytest.raises(ValueError):
            encode_png(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            encode_png(np.zeros((0, 4, 3), dtype=np.uint8))

    def test_smooth_compresses_better_than_noise(self, rng):
        noise = _random_image(rng, 64, 64, 3)
        smooth = np.tile(np.arange(64, dtype=np.uint8)[None, :, None], (64, 1, 3))
        assert len(encode_png(smooth)) < len(encode_png(noise))


class TestRoundTrip:
    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_random(self, rng, channels):
        img = _random_image(rng, 13, 17, channels)
        out = decode_png(encode_png(img))
        np.testing.assert_array_equal(out, img)

    def test_single_pixel(self):
        img = np.array([[[255, 0, 128]]], dtype=np.uint8)
        np.testing.assert_array_equal(decode_png(encode_png(img)), img)

    def test_gradient(self):
        g = np.linspace(0, 255, 32).astype(np.uint8)
        img = np.stack([np.tile(g, (32, 1))] * 3, axis=2)
        np.testing.assert_array_equal(decode_png(encode_png(img)), img)

    def test_grayscale_shape(self, rng):
        img = _random_image(rng, 8, 8, 1)
        out = decode_png(encode_png(img))
        assert out.shape == (8, 8)


class TestWritePng:
    def test_returns_bytes_written(self, tmp_path, rng):
        img = _random_image(rng, 8, 8, 3)
        path = tmp_path / "out.png"
        n = write_png(path, img)
        assert path.stat().st_size == n

    def test_file_decodes(self, tmp_path, rng):
        img = _random_image(rng, 8, 8, 3)
        path = tmp_path / "out.png"
        write_png(path, img)
        np.testing.assert_array_equal(decode_png(path.read_bytes()), img)


class TestDecodeErrors:
    def test_not_png(self):
        with pytest.raises(ValueError):
            decode_png(b"definitely not a png")


# -- filters the encoder does not write ------------------------------------


def _filtered(img: np.ndarray, ftype: int) -> np.ndarray:
    """``(H, W*C)`` filter-`ftype` bytes of an ``(H, W, C)`` image, straight
    from the PNG specification (predictors read the original bytes)."""
    h, w, c = img.shape
    x = img.astype(np.int16)
    a = np.zeros_like(x)
    a[:, 1:] = x[:, :-1]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    cc = np.zeros_like(x)
    cc[1:, 1:] = x[:-1, :-1]
    if ftype == 0:
        pred = np.zeros_like(x)
    elif ftype == 1:
        pred = a
    elif ftype == 2:
        pred = b
    elif ftype == 3:
        pred = (a + b) // 2
    else:
        p = a + b - cc
        pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - cc)
        pred = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, cc))
    return ((x - pred) % 256).astype(np.uint8).reshape(h, w * c)


def _encode(img: np.ndarray, ftypes, level: int = 6) -> bytes:
    """A PNG of an ``(H, W, C)`` image whose row ``y`` carries filter
    ``ftypes[y % len(ftypes)]``."""
    h, w, c = img.shape
    raw = np.empty((h, 1 + w * c), dtype=np.uint8)
    for ftype in set(ftypes):
        rows = [y for y in range(h) if ftypes[y % len(ftypes)] == ftype]
        raw[rows, 0] = ftype
        raw[rows, 1:] = _filtered(img, ftype)[rows]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, {1: 0, 3: 2, 4: 6}[c], 0, 0, 0)
    return b"".join([
        b"\x89PNG\r\n\x1a\n",
        _chunk(b"IHDR", ihdr),
        _chunk(b"IDAT", zlib.compress(raw.tobytes(), level)),
        _chunk(b"IEND", b""),
    ])


class TestEveryFilterDecodes:
    """Frames from other encoders use any filter, mixed row by row."""

    @pytest.mark.parametrize("ftypes", [(0,), (1,), (2,), (3,), (4,), (0, 1, 2, 3, 4)])
    @pytest.mark.parametrize("channels", [1, 3, 4])
    def test_round_trip(self, rng, ftypes, channels):
        noise = rng.integers(0, 256, (11, 7, channels), dtype=np.uint8)
        ramp = np.indices((11, 7)).sum(axis=0).astype(np.uint8) * 20
        smooth = np.repeat(ramp[:, :, None], channels, axis=2)
        for img in (noise, smooth):
            out = decode_png(_encode(img, ftypes))
            np.testing.assert_array_equal(out.reshape(img.shape), img)


# -- hostile bytes ---------------------------------------------------------


@st.composite
def _pngs(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    c = draw(st.sampled_from([1, 3, 4]))
    seed = draw(st.integers(0, 1000))
    img = np.random.default_rng(seed).integers(0, 256, (h, w, c), dtype=np.uint8)
    return encode_png(img[:, :, 0] if c == 1 else img)


def _chunk_starts(data: bytes) -> list[int]:
    pos, starts = 8, []
    while pos < len(data):
        starts.append(pos)
        pos += 12 + struct.unpack_from(">I", data, pos)[0]
    return starts


_hostile = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestHostileBytes:
    """Every malformed input raises ``ValueError``: the benchmark's frame
    checker counts that as a failed operation instead of crashing."""

    @_hostile
    @given(st.data())
    def test_truncation(self, data):
        png = data.draw(_pngs())
        cut = data.draw(st.integers(0, len(png) - 1))
        with pytest.raises(ValueError):
            decode_png(png[:cut])

    @_hostile
    @given(st.data())
    def test_bit_flip(self, data):
        png = bytearray(data.draw(_pngs()))
        bit = data.draw(st.integers(0, 8 * len(png) - 1))
        png[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ValueError):
            decode_png(bytes(png))

    @_hostile
    @given(st.data())
    def test_chunk_length_lie(self, data):
        png = bytearray(data.draw(_pngs()))
        start = data.draw(st.sampled_from(_chunk_starts(png)))
        true_length = struct.unpack_from(">I", png, start)[0]
        lie = data.draw(st.integers(0, 2**32 - 1).filter(lambda n: n != true_length))
        struct.pack_into(">I", png, start, lie)
        with pytest.raises(ValueError):
            decode_png(bytes(png))

    @_hostile
    @given(st.data())
    def test_corrupt_idat_behind_a_valid_crc(self, data):
        """A damaged zlib stream is caught by zlib or the size check;
        a flip that zlib cannot see (the final byte's padding bits)
        must still give the original pixels."""
        png = data.draw(_pngs())
        start = _chunk_starts(png)[1]
        idat = bytearray(png[start + 8 : start + 8 + struct.unpack_from(">I", png, start)[0]])
        if data.draw(st.booleans()):
            bit = data.draw(st.integers(0, 8 * len(idat) - 1))
            idat[bit // 8] ^= 1 << (bit % 8)
        else:
            del idat[data.draw(st.integers(0, len(idat) - 1)) :]
        forged = png[:start] + _chunk(b"IDAT", bytes(idat)) + png[start + 12 + len(idat) :]
        try:
            out = decode_png(forged)
        except ValueError:
            return
        np.testing.assert_array_equal(out, decode_png(png))

    @_hostile
    @given(st.data())
    def test_ihdr_lie_behind_a_valid_crc(self, data):
        png = data.draw(_pngs())
        w, h, depth, color, *_ = struct.unpack_from(">IIBBBBB", png, 16)
        c = {0: 1, 2: 3, 6: 4}[color]
        w2, h2 = data.draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
        assume(h2 * (1 + w2 * c) != h * (1 + w * c))
        ihdr = struct.pack(">IIBBBBB", w2, h2, depth, color, 0, 0, 0)
        with pytest.raises(ValueError):
            decode_png(png[:8] + _chunk(b"IHDR", ihdr) + png[33:])

    @pytest.mark.parametrize("w,h", [(2**32 - 1, 2**32 - 1), (2**31, 1), (1, 2**20)])
    def test_ihdr_larger_than_any_stream(self, rng, w, h):
        png = encode_png(_random_image(rng, 3, 3, 3))
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        with pytest.raises(ValueError, match="cannot hold"):
            decode_png(png[:8] + _chunk(b"IHDR", ihdr) + png[33:])

    @pytest.mark.parametrize("field,value", [(8, 16), (9, 3), (12, 1)])
    def test_unsupported_header(self, rng, field, value):
        png = encode_png(_random_image(rng, 3, 3, 3))
        ihdr = bytearray(png[16:29])
        ihdr[field] = value
        with pytest.raises(ValueError):
            decode_png(png[:8] + _chunk(b"IHDR", bytes(ihdr)) + png[33:])

    def test_unknown_filter_type(self, rng):
        img = _random_image(rng, 3, 3, 3)
        raw = np.zeros((3, 10), dtype=np.uint8)
        raw[1, 0] = 5
        png = _encode(img, (0,))
        start = _chunk_starts(png)[1]
        idat = _chunk(b"IDAT", zlib.compress(raw.tobytes()))
        forged = png[:start] + idat + png[-12:]
        with pytest.raises(ValueError, match="filter type 5"):
            decode_png(forged)


# -- bytes on the workloads' frames ----------------------------------------

#: the ``pb_insitu`` workload's pipeline (256 x 256, every 2nd step)
_PB_XML = (
    '<sensei><analysis type="catalyst" mesh="uniform" '
    'array="velocity_magnitude" isovalue="0.5" color_array="temperature" '
    'slice_axis="y" width="256" height="256" frequency="2" /></sensei>'
)

#: bytes of each family's frames at filter 1 ("Sub") and zlib level 6,
#: the encoder's setting before the measured grid (``_encode(f, (1,), 6)``)
_SUB6_BYTES = {
    "pb surface": 100_185,
    "pb slice": 23_612,
    "rbc surface": 111_410,
    "rbc slice": 34_982,
}


def _pb_frames(out):
    """Four vizzes of the ``pb_insitu`` case on two ranks."""

    def body(comm):
        case = pebble_bed_case(
            num_pebbles=5, elements_per_unit=4, order=5, dt=1e-3, viscosity=5e-2,
        )
        solver = NekRSSolver(case, comm, Device("cuda-sim"))
        bridge = Bridge(solver, config_xml=_PB_XML, output_dir=out)
        for _ in range(8):
            report = solver.step()
            bridge.update(report.step, report.time)
        bridge.finalize()

    run_spmd(2, body)
    return out


def _rbc_frames(out):
    """Three steps of the ``rbc_intransit`` shape (1 + 1 ranks, 128 x 128,
    the temporal delta-rle codec) under each of four seeds."""
    for seed in range(1, 5):
        runner = InTransitRunner(
            lambda n, seed=seed: weak_scaled_rbc_case(
                n, elements_per_rank=32, order=5, dt=1e-3, seed=seed,
            ),
            mode="catalyst", ratio=1, num_steps=3, stream_interval=1,
            arrays=("temperature", "velocity_magnitude"), image_size=128,
            codec=CodecSpec.from_cli("delta-rle", "1e-3", temporal=True),
            output_dir=out / f"seed{seed}",
        )
        run_spmd(2, runner.run)
    return out


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """{family: [decoded frames]} from seeded runs of both viz workloads."""
    pb = _pb_frames(tmp_path_factory.mktemp("pb"))
    rbc = _rbc_frames(tmp_path_factory.mktemp("rbc"))
    families = {}
    for root, shape in ((pb, "pb"), (rbc, "rbc")):
        for path in sorted(root.rglob("*.png")):
            kind = "surface" if "_surface_" in path.name else "slice"
            families.setdefault(f"{shape} {kind}", []).append(
                decode_png(path.read_bytes())
            )
    return families


class TestRenderedFrameBytes:
    """The grid's rule on frames from the workloads' own pipelines: no
    family grows by more than 10 % over Sub at level 6, and the four
    together do not grow."""

    def test_families(self, rendered):
        assert {k: len(v) for k, v in rendered.items()} == {
            "pb surface": 4, "pb slice": 4, "rbc surface": 12, "rbc slice": 12,
        }
        assert rendered["pb surface"][0].shape == (256, 256, 3)
        assert rendered["rbc surface"][0].shape == (128, 128, 3)

    def test_no_family_grows_past_ten_percent(self, rendered):
        for family, frames in rendered.items():
            got = sum(len(encode_png(f)) for f in frames)
            assert got <= 1.10 * _SUB6_BYTES[family], (family, got)

    def test_total_does_not_grow(self, rendered):
        got = sum(len(encode_png(f)) for frames in rendered.values() for f in frames)
        assert got <= sum(_SUB6_BYTES.values())
