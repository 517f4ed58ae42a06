"""Property-based tests (hypothesis) on core data structures/invariants."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.adios.engine import pack_bp_file, unpack_bp_file
from repro.adios.marshal import StepPayload, marshal_step, unmarshal_step
from repro.catalyst.colormaps import apply_colormap
from repro.catalyst.contour import marching_tetrahedra
from repro.codec import (
    CodecContext,
    CodecSpec,
    ErrorBudget,
    FieldCodecConfig,
    decode_fields,
    encode_fields,
)
from repro.faults.errors import CorruptPayloadError
from repro.parallel.comm import ReduceOp, _combine
from repro.parallel.partition import block_range
from repro.perf import naive_mode
from repro.sem.quadrature import gll_nodes_weights, lagrange_interpolation_matrix
from repro.util.png import decode_png, encode_png
from repro.util.sizes import format_bytes
from repro.util.timing import TimingStats
from test_codec import _decode_in, _encode_in


class TestPartitionProperties:
    @given(n=st.integers(0, 500), size=st.integers(1, 64))
    def test_partition_tiles_range(self, n, size):
        ranges = [block_range(n, size, r) for r in range(size)]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n
        for (lo_a, hi_a), (lo_b, _) in zip(ranges, ranges[1:]):
            assert hi_a == lo_b
            assert hi_a >= lo_a

    @given(n=st.integers(1, 500), size=st.integers(1, 64))
    def test_balance_within_one(self, n, size):
        sizes = [hi - lo for lo, hi in (block_range(n, size, r) for r in range(size))]
        assert max(sizes) - min(sizes) <= 1


class TestPngProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        img=hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(
                st.integers(1, 12), st.integers(1, 12), st.sampled_from([1, 3, 4])
            ),
        )
    )
    def test_roundtrip(self, img):
        decoded = decode_png(encode_png(img))
        expected = img[:, :, 0] if img.shape[2] == 1 else img
        np.testing.assert_array_equal(decoded, expected)


class TestMarshalProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        step=st.integers(0, 10**6),
        time=st.floats(0, 1e6, allow_nan=False),
        rank=st.integers(0, 4096),
        arr=st.one_of(
            hnp.arrays(
                dtype=st.sampled_from([np.float64, np.float32]),
                shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                elements=st.floats(-1e6, 1e6, allow_nan=False, width=32),
            ),
            hnp.arrays(
                dtype=st.sampled_from([np.int64, np.int32]),
                shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            ),
        ),
    )
    def test_roundtrip(self, step, time, rank, arr):
        payload = StepPayload(step, time, rank, {"v": arr}, {"k": "val"})
        out = unmarshal_step(marshal_step(payload))
        assert out.step == step and out.rank == rank
        assert out.time == time
        np.testing.assert_array_equal(out.variables["v"], arr)
        assert out.variables["v"].dtype == arr.dtype


_BP_FILE = pack_bp_file(marshal_step(
    StepPayload(2, 0.5, 1, {"u": np.linspace(0.0, 1.0, 64),
                            "ids": np.arange(5)}, {"k": "v"}),
    codec=CodecSpec.from_cli("delta-rle", "1e-3"),
))


@st.composite
def _hostile_bp_files(draw):
    """A valid BP file after a few flips, cuts, extensions and length lies."""
    data = bytearray(_BP_FILE)
    for _ in range(draw(st.integers(0, 4))):
        how = draw(st.sampled_from(["flip", "cut", "extend", "declare"]))
        if how == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= draw(st.integers(1, 255))
        elif how == "cut":
            del data[draw(st.integers(0, len(data))):]
        elif how == "extend":
            data += draw(st.binary(min_size=1, max_size=64))
        elif how == "declare" and len(data) >= 12:
            data[4:12] = struct.pack("<Q", draw(st.integers(0, 2**64 - 1)))
    return bytes(data)


class TestBPFileProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        _hostile_bp_files(),
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda b: b"RBPZ" + b),
    ))
    def test_any_bytes_decode_or_raise_corrupt_payload(self, data):
        """The BP reader is total: whatever a file holds, it decodes or
        raises :class:`CorruptPayloadError` — never anything else."""
        try:
            out = unmarshal_step(unpack_bp_file(data), context=CodecContext())
        except CorruptPayloadError:
            return
        assert out.step == 2 and set(out.variables) == {"u", "ids"}


class TestReduceProperties:
    @given(values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=20))
    def test_sum_order_invariant(self, values):
        assert _combine(ReduceOp.SUM, values) == _combine(
            ReduceOp.SUM, list(reversed(values))
        )

    @given(values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=20))
    def test_min_le_max(self, values):
        assert _combine(ReduceOp.MIN, values) <= _combine(ReduceOp.MAX, values)

    @given(values=st.lists(st.booleans(), min_size=1, max_size=10))
    def test_logical_consistency(self, values):
        assert _combine(ReduceOp.LAND, values) == all(values)
        assert _combine(ReduceOp.LOR, values) == any(values)


class TestQuadratureProperties:
    @given(order=st.integers(1, 10))
    def test_weights_positive_sum_two(self, order):
        x, w = gll_nodes_weights(order)
        assert (w > 0).all()
        assert w.sum() == pytest.approx(2.0)
        assert x[0] == -1.0 and x[-1] == 1.0

    @given(
        order=st.integers(1, 8),
        coeffs=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=4),
    )
    def test_interpolation_reproduces_its_own_degree(self, order, coeffs):
        coeffs = coeffs[: order + 1]
        x, _ = gll_nodes_weights(order)
        targets = np.linspace(-1, 1, 7)
        J = lagrange_interpolation_matrix(x, targets)
        poly = np.polynomial.Polynomial(coeffs)
        np.testing.assert_allclose(J @ poly(x), poly(targets), atol=1e-8)


class TestColormapProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        vals=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 50),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        ),
        name=st.sampled_from(["viridis", "plasma", "coolwarm", "grayscale"]),
    )
    def test_output_always_valid_rgb(self, vals, name):
        rgb = apply_colormap(vals, name=name)
        assert rgb.dtype == np.uint8
        assert rgb.shape == vals.shape + (3,)

    @given(
        lo=st.floats(-100, 100, allow_nan=False),
        span=st.floats(0.1, 100, allow_nan=False),
    )
    def test_monotone_in_grayscale(self, lo, span):
        vals = np.linspace(lo, lo + span, 16)
        rgb = apply_colormap(vals, vmin=lo, vmax=lo + span, name="grayscale")
        assert (np.diff(rgb[:, 0].astype(int)) >= 0).all()


class TestContourProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        vol=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5)),
            elements=st.floats(-1, 1, allow_nan=False),
        ),
        iso=st.floats(-0.5, 0.5, allow_nan=False),
    )
    def test_surface_vertices_sit_on_isovalue(self, vol, iso):
        """Every extracted vertex interpolates the scalar to the isovalue
        (up to degenerate edges where both endpoints equal iso)."""
        verts, faces, vals = marching_tetrahedra(vol, iso)
        if len(vals):
            np.testing.assert_allclose(vals, iso, atol=1e-9)
            assert faces.max() < len(verts)

    @settings(max_examples=20, deadline=None)
    @given(
        vol=hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
            elements=st.floats(-1, 1, allow_nan=False),
        )
    )
    def test_no_crossing_when_iso_outside_range(self, vol):
        verts, faces, _ = marching_tetrahedra(vol, vol.max() + 1.0)
        assert len(faces) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        vols=st.tuples(
            st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)
        ).flatmap(
            lambda shape: st.tuples(
                hnp.arrays(np.float64, shape, elements=st.floats(-2, 2),
                           fill=st.nothing()),
                # ~1 lattice point in 5 blanked: most cubes stay finite
                hnp.arrays(
                    np.float64, shape, fill=st.nothing(),
                    elements=st.sampled_from([0.0] * 12 + [np.nan, np.inf, -np.inf]),
                ),
                hnp.arrays(np.float64, shape, elements=st.floats(-2, 2)),
            )
        ),
        iso=st.floats(-1, 1, allow_nan=False),
        with_aux=st.booleans(),
        offset=st.tuples(*[st.integers(-4, 40)] * 3),
    )
    def test_batched_is_bitwise_the_reference_loop(self, vols, iso, with_aux, offset):
        """Vertices, faces and values — order and dtypes included — are
        byte-equal between the batched path and the per-cube loop, with
        NaN/inf-blanked corners anywhere in the volume."""
        base, blanks, aux = vols
        vol = base + blanks
        kw = dict(
            origin=(0.1, -0.7, 3.3), spacing=(0.3, 0.7, 1.1),
            aux=aux if with_aux else None, index_offset=offset,
        )
        fast = marching_tetrahedra(vol, iso, **kw)
        with naive_mode():
            slow = marching_tetrahedra(vol, iso, **kw)
        for f, s in zip(fast, slow, strict=True):
            assert f.dtype == s.dtype and f.shape == s.shape
            assert f.tobytes() == s.tobytes()


class _ScreenCamera:
    """Camera stand-in: the vertices already are (x, y, depth) pixels."""

    def project(self, points):
        return np.asarray(points, dtype=float)


class TestRasterizerProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        xy=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 12), st.just(3), st.just(2)),
            elements=st.one_of(
                st.floats(-4, 44),
                st.integers(-4, 84).map(lambda k: k / 2.0),   # centres, edges
                st.integers(0, 39).flatmap(lambda k: st.sampled_from([
                    np.nextafter(k + 0.5, np.inf), np.nextafter(k + 0.5, -np.inf),
                ])),
                st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e17]),
            ),
            fill=st.nothing(),
        ),
        z=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 0.0, -1.0, np.nan]),
                   min_size=36, max_size=36),
        chunk=st.sampled_from([1, 64, 1 << 19]),
    )
    def test_batched_is_bitwise_the_reference_loop(self, size, xy, z, chunk):
        """Colour, depth and ``triangles_drawn`` are equal between the
        batched fill and the per-triangle loop for any triangles at all:
        sub-pixel, on centres and pixel edges, one ulp off a centre,
        huge, non-finite, behind the camera, tied in depth."""
        from repro.catalyst import rasterizer

        width, height = size
        vertices = np.concatenate(
            [xy.reshape(-1, 2), np.asarray(z)[: 3 * len(xy), None]], axis=1)
        faces = np.arange(len(vertices)).reshape(-1, 3)
        colors = (np.arange(vertices.size).reshape(-1, 3) * 37 % 256).astype(np.uint8)
        fast = rasterizer.Rasterizer(width, height)
        slow = rasterizer.Rasterizer(width, height)
        saved, rasterizer._CHUNK_PIXELS = rasterizer._CHUNK_PIXELS, chunk
        try:
            with np.errstate(all="ignore"):   # nan/inf normals of bad faces
                nfast = fast.draw_mesh(_ScreenCamera(), vertices, faces, colors)
                with naive_mode():
                    nslow = slow.draw_mesh(_ScreenCamera(), vertices, faces, colors)
        finally:
            rasterizer._CHUNK_PIXELS = saved
        assert nfast == nslow
        assert fast.depth.tobytes() == slow.depth.tobytes()
        assert fast.color.tobytes() == slow.color.tobytes()


class TestCodecProperties:
    @staticmethod
    def _rows(dtype):
        """1-12 same-length rows: finite values of any magnitude, with
        NaN / +-Inf / repeated values sprinkled in, some rows constant."""
        finite = st.floats(allow_nan=False, allow_infinity=False,
                           width=8 * np.dtype(dtype).itemsize)
        elements = st.one_of(
            finite, st.floats(-1, 1, width=32),
            st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]),
        )
        return st.integers(1, 24).flatmap(lambda n: st.lists(
            st.one_of(
                hnp.arrays(dtype, (n,), elements=elements),
                hnp.arrays(dtype, (n,), elements=finite, fill=st.nothing())
                .map(lambda a: np.full_like(a, a[0])),
                hnp.arrays(dtype, (n,), elements=st.floats(-1, 1, width=32)),
            ),
            min_size=1, max_size=12,
        ))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(
        groups=st.lists(
            st.sampled_from(["<f4", "<f8"]).flatmap(
                lambda dtype: TestCodecProperties._rows(dtype)),
            min_size=1, max_size=3,
        ),
        budget=st.one_of(
            st.floats(1e-12, 1e-1).map(lambda r: ErrorBudget(relative=r)),
            st.floats(1e-9, 1e3).map(lambda a: ErrorBudget(absolute=a)),
        ),
        temporal=st.booleans(),
        drift=st.sampled_from([0.0, 1e-6, 1e-2, 7.0]),
    )
    def test_batched_codec_is_bytewise_the_field_at_a_time_codec(
        self, groups, budget, temporal, drift
    ):
        """`encode_fields` / `decode_fields` over a mixed batch give the
        blocks, arrays and remembered quanta of one-row calls, over a
        two-step temporal chain, in default and naive mode."""
        cfg = FieldCodecConfig("delta-rle", budget, temporal=temporal)
        fields = [(f"g{g}/r{r}", row, cfg)
                  for g, rows in enumerate(groups) for r, row in enumerate(rows)]
        contexts = [CodecContext() for _ in range(5)]
        enc_b, enc_1, dec_b, dec_1, dec_n = contexts
        for step in range(2):
            batched = encode_fields(fields, step, enc_b)
            assert batched == [_encode_in(*f, step, enc_1) for f in fields]
            blocks = [(name, *block, arr.dtype, arr.shape)
                      for (name, arr, _), block in zip(fields, batched)]
            want = [_decode_in(*block, step, dec_1) for block in blocks]
            with naive_mode():
                naive = decode_fields(blocks, step, dec_n)
            for got in (decode_fields(blocks, step, dec_b), naive):
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
            quanta = [
                {name: (s, qstep, q.tobytes())
                 for name, (s, qstep, q) in context._prev.items()}
                for context in contexts
            ]
            assert all(q == quanta[0] for q in quanta)
            fields = [(name, (arr * (1 + drift) + drift).astype(arr.dtype), c)
                      for name, arr, c in fields]


class TestTimingStatsProperties:
    @given(
        a=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20),
        b=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20),
    )
    def test_merge_equals_sequential(self, a, b):
        merged, seq = TimingStats(), TimingStats()
        other = TimingStats()
        for x in a:
            merged.add(x)
            seq.add(x)
        for x in b:
            other.add(x)
            seq.add(x)
        merged.merge(other)
        assert merged.count == seq.count
        assert merged.mean == pytest.approx(seq.mean, abs=1e-9)
        assert merged.variance == pytest.approx(seq.variance, abs=1e-6)


class TestSizesProperties:
    @given(n=st.integers(0, 2**50))
    def test_format_never_crashes_and_mentions_unit(self, n):
        out = format_bytes(n)
        assert any(u in out for u in ("B", "KiB", "MiB", "GiB", "TiB"))
