"""Tests for the wire compression codec layer and the hybrid router.

Covers the :mod:`repro.codec` stage primitives (against their
``naive_mode`` reference twins), the per-field pipelines across the
edge-case zoo (NaN/Inf, constants, single elements, odd shapes, both
float widths), the RBP3 frame (round trips, CRC over compressed
bytes, lossless byte-identity with RBP2, RBP2 decode and RBP1 rejection,
geometry pinning, copy-on-write isolation), the batched codec against
its one-row case (bytes, contexts, hostile blocks, golden frames), the
:class:`~repro.insitu.router.HybridRouter` state machine, the labeled
route counters, and the serve-plane codec accounting.
"""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from repro.adios.marshal import (
    StepPayload,
    marshal_step,
    unmarshal_step,
)
from repro.codec import (
    CodecContext,
    CodecError,
    CodecSpec,
    ErrorBudget,
    FieldCodecConfig,
    MissingReferenceError,
    decode_field,
    decode_fields,
    encode_field,
    encode_fields,
)
from repro.codec import stages
from repro.codec.pipeline import CONSTANT, DELTA_RLE, RAW
from repro.faults.errors import CorruptPayloadError
from repro.insitu.router import HybridRouter, RouteDecision, RouterPolicy
from repro.perf import naive_mode


def _encode_in(name, arr, cfg, step, context):
    """One field encoded against a temporal `context`."""
    return encode_fields([(name, arr, cfg)], step, context)[0]


def _decode_in(name, codec_id, params, data, dtype, shape, step, context):
    """One wire block decoded against a temporal `context`."""
    return decode_fields([(name, codec_id, params, data, dtype, shape)],
                         step, context)[0]


def _smooth(shape=(6, 5, 5), seed=0, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*(np.linspace(0, 1, n) for n in shape), indexing="ij")
    f = sum(np.sin(3.1 * g + i) for i, g in enumerate(grids))
    return scale * (f + 1e-3 * rng.normal(size=shape)) + offset


def _leb128(values) -> bytes:
    """LEB128 bytes of a uint64 array, one byte at a time: hostile and
    reference streams built independently of the codec's packer."""
    out = bytearray()
    for v in np.asarray(values, dtype=np.uint64).tolist():
        while v >= 0x80:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


EDGE_ARRAYS = {
    "nan": np.array([[1.0, np.nan], [3.0, 4.0]]),
    "inf": np.array([0.0, np.inf, -np.inf, 2.0]),
    "constant": np.full((4, 3), 2.5),
    "one": np.array([42.0]),
    "empty": np.zeros((0,)),
    "odd_shape": _smooth((7, 3, 5), seed=3),
    "f4": _smooth((5, 5), seed=4).astype(np.float32),
    "tiny_range": 1.0 + 1e-14 * np.arange(8.0),
    # a range-relative bound is far below the values' magnitude
    "offset": 100 + np.linspace(0, 1, 4096),
}


class TestStages:
    def test_varint_zigzag_roundtrip_and_reference(self, rng):
        vals = np.concatenate([
            rng.integers(-(2**40), 2**40, size=200),
            np.array([0, -1, 1, 2**62, -(2**62)]),
        ]).astype(np.int64)
        data = _leb128(stages.zigzag_encode(vals))
        out = stages.zigzag_decode(stages.varint_decode(data, vals.size))
        ref = stages.zigzag_decode(
            stages.varint_decode_reference(data, vals.size)
        )
        np.testing.assert_array_equal(out, vals)
        np.testing.assert_array_equal(ref, vals)

    def test_rle_roundtrip_and_reference(self, rng):
        vals = np.repeat(
            rng.integers(-50, 50, size=40), rng.integers(1, 9, size=40)
        ).astype(np.int64)
        data = stages.rle_encode_rows(vals.reshape(1, -1))[0]
        np.testing.assert_array_equal(stages.rle_decode(data), vals)
        np.testing.assert_array_equal(stages.rle_decode_reference(data), vals)
        with naive_mode():
            np.testing.assert_array_equal(stages.rle_decode(data), vals)

    def test_delta_roundtrip_and_reference(self, rng):
        q = rng.integers(-1000, 1000, size=(4, 5, 5)).astype(np.int64)
        deltas = stages.delta_encode(q)
        np.testing.assert_array_equal(
            stages.delta_decode(deltas).reshape(q.shape), q
        )
        np.testing.assert_array_equal(
            stages.delta_decode_reference(deltas).reshape(q.shape), q
        )

    def test_quantize_bound(self, rng):
        arr = rng.normal(size=500)
        step = 1e-3
        q, fits = stages.quantize_rows(arr.reshape(1, -1), np.array([step]))
        assert fits[0]
        q = q[0].astype(np.int64)
        out = stages.dequantize(q, step)
        assert np.abs(out - arr).max() <= step / 2 + 1e-12
        ref = stages.dequantize_reference(q, step)
        np.testing.assert_array_equal(out, ref)

    def test_rle_decode_rejects_adversarial_gap(self):
        """A gap >= 2**63 must raise, not wrap into negative indexing.

        The int64 cast inside the vectorized decoder would fold such a
        gap negative and write via wrap-around indices; both decoders
        must instead reject the stream identically.
        """
        payload = (
            _leb128(np.array([10, 1], dtype=np.uint64))
            + _leb128(np.array([2**63], dtype=np.uint64))
            + _leb128(
                stages.zigzag_encode(np.array([7], dtype=np.int64))
            )
        )
        with pytest.raises(CodecError):
            stages.rle_decode(payload)
        with pytest.raises(CodecError):
            stages.rle_decode_reference(payload)


class TestFieldPipelines:
    @pytest.mark.parametrize("codec", ["delta-rle"])
    @pytest.mark.parametrize("case", sorted(EDGE_ARRAYS))
    def test_roundtrip_within_budget(self, codec, case):
        arr = EDGE_ARRAYS[case]
        cfg = FieldCodecConfig(codec=codec, budget=ErrorBudget(relative=1e-3))
        codec_id, params, data = encode_field(case, arr, cfg, step=0)
        out = decode_field(case, codec_id, params, data, arr.dtype,
                           arr.shape, step=0)
        assert out.shape == arr.shape and out.dtype == arr.dtype
        bound = cfg.budget.bound_for(arr) if arr.size else None
        if codec_id == RAW or not np.isfinite(arr).all():
            np.testing.assert_array_equal(out, arr)
        else:
            assert np.abs(out - arr).max() <= (bound or 0) + 1e-12

    @pytest.mark.parametrize("codec", ["delta-rle"])
    def test_smooth_field_compresses(self, codec):
        arr = _smooth((8, 8, 8), seed=1)
        cfg = FieldCodecConfig(codec=codec, budget=ErrorBudget(relative=1e-3))
        codec_id, params, data = encode_field("f", arr, cfg, step=0)
        assert codec_id != RAW
        assert len(data) * 2 < arr.nbytes

    def test_nan_inf_fall_back_to_raw(self):
        cfg = FieldCodecConfig(codec="delta-rle",
                               budget=ErrorBudget(relative=1e-3))
        for case in ("nan", "inf"):
            codec_id, _, data = encode_field(case, EDGE_ARRAYS[case], cfg, 0)
            assert codec_id == RAW
            assert data == EDGE_ARRAYS[case].tobytes()

    def test_constant_field_is_one_value(self):
        cfg = FieldCodecConfig(codec="delta-rle",
                               budget=ErrorBudget(relative=1e-3))
        codec_id, params, data = encode_field(
            "c", EDGE_ARRAYS["constant"], cfg, 0
        )
        assert codec_id == CONSTANT and data == b""
        out = decode_field("c", codec_id, params, data, np.float64, (4, 3), 0)
        np.testing.assert_array_equal(out, EDGE_ARRAYS["constant"])

    def test_lossless_config_is_bit_exact(self, rng):
        arr = rng.normal(size=(5, 5))
        codec_id, _, data = encode_field("f", arr, None, 0)
        assert codec_id == RAW
        out = decode_field("f", codec_id, {}, data, arr.dtype, arr.shape, 0)
        np.testing.assert_array_equal(out, arr)

    def test_absolute_budget(self, rng):
        arr = rng.normal(size=200) * 100
        cfg = FieldCodecConfig(codec="delta-rle",
                               budget=ErrorBudget(absolute=0.05))
        codec_id, params, data = encode_field("f", arr, cfg, 0)
        out = decode_field("f", codec_id, params, data, arr.dtype,
                           arr.shape, 0)
        assert np.abs(out - arr).max() <= 0.05 + 1e-12

    @pytest.mark.parametrize("codec", ["delta-rle"])
    def test_combined_budget_honors_tighter_absolute_bound(self, codec, rng):
        """With both bounds set, the tighter one wins (bound_for's rule).

        A large-magnitude field makes the absolute bound far tighter
        than the relative one.
        """
        arr = 2e6 + rng.normal(size=(8, 8, 8))
        budget = ErrorBudget(absolute=1e-6, relative=1e-1)
        cfg = FieldCodecConfig(codec=codec, budget=budget)
        codec_id, params, data = encode_field("p", arr, cfg, 0)
        out = decode_field("p", codec_id, params, data, arr.dtype,
                           arr.shape, 0)
        assert np.abs(out - arr).max() <= budget.bound_for(arr) + 1e-12

    @pytest.mark.parametrize("codec", ["delta-rle"])
    def test_naive_mode_decode_parity(self, codec, rng):
        arr = _smooth((6, 6, 6), seed=7)
        cfg = FieldCodecConfig(codec=codec, budget=ErrorBudget(relative=1e-3))
        codec_id, params, data = encode_field("f", arr, cfg, 0)
        fast = decode_field("f", codec_id, params, data, arr.dtype,
                            arr.shape, 0)
        with naive_mode():
            slow = decode_field("f", codec_id, params, data, arr.dtype,
                                arr.shape, 0)
        np.testing.assert_array_equal(fast, slow)

    def test_corrupt_block_raises(self):
        arr = _smooth((6, 6), seed=2)
        cfg = FieldCodecConfig(codec="delta-rle",
                               budget=ErrorBudget(relative=1e-3))
        codec_id, params, data = encode_field("f", arr, cfg, 0)
        assert codec_id == DELTA_RLE
        with pytest.raises(CodecError):
            decode_field("f", codec_id, params, data[:-3], arr.dtype,
                         arr.shape, 0)


class TestTemporal:
    def _cfg(self):
        return FieldCodecConfig(
            codec="delta-rle", budget=ErrorBudget(relative=1e-3),
            temporal=True,
        )

    def test_temporal_chain_roundtrip(self):
        enc, dec = CodecContext(), CodecContext()
        base = _smooth((6, 6, 6), seed=9)
        for step in range(3):
            arr = base + 1e-4 * step
            codec_id, params, data = _encode_in("T", arr, self._cfg(),
                                                  step, enc)
            if step > 0:
                assert params.get("m") == "t"
                assert params["ref"] == step - 1
            out = _decode_in("T", codec_id, params, data, arr.dtype,
                               arr.shape, step, dec)
            bound = self._cfg().budget.bound_for(arr)
            assert np.abs(out - arr).max() <= bound + 1e-12

    def test_temporal_decode_without_context_raises(self):
        enc = CodecContext()
        base = _smooth((5, 5), seed=10)
        _encode_in("T", base, self._cfg(), 0, enc)
        codec_id, params, data = _encode_in("T", base + 1e-4,
                                              self._cfg(), 1, enc)
        assert params.get("m") == "t"
        with pytest.raises(MissingReferenceError):
            _decode_in("T", codec_id, params, data, base.dtype,
                         base.shape, 1, context=None)
        with pytest.raises(MissingReferenceError):
            # a fresh context never decoded the reference step either
            _decode_in("T", codec_id, params, data, base.dtype,
                         base.shape, 1, context=CodecContext())

    def test_raw_fallback_keeps_temporal_chain_decodable(self):
        """Encoder must not remember quanta the decoder never sees.

        Incompressible noise under a tiny budget falls back to raw;
        the encoder used to remember that step's quanta anyway, so the
        next temporal block referenced a step the decoder had never
        decoded and the stream became undecodable.
        """
        cfg = FieldCodecConfig(
            codec="delta-rle", budget=ErrorBudget(relative=1e-9),
            temporal=True,
        )
        rng = np.random.default_rng(20)
        enc, dec = CodecContext(), CodecContext()
        for step in range(1, 4):
            arr = rng.standard_normal(512).astype(np.float32)
            codec_id, params, data = _encode_in("v", arr, cfg, step, enc)
            assert codec_id == RAW     # noise at 1e-9 never shrinks
            out = _decode_in("v", codec_id, params, data, arr.dtype,
                               arr.shape, step, dec)
            np.testing.assert_array_equal(out, arr)

    def test_raw_fallback_mid_chain_keeps_last_shipped_reference(self):
        """An incompressible step must not break the chain around it.

        Steps 0, 1 and 3 ship DELTA_RLE; step 2 is white noise
        (normalized to the base's range so qsteps stay compatible)
        whose deltas cost more than raw under the tight budget, so it
        falls back.  Step 3's temporal reference must then point at
        step 1 — the last quanta the decoder actually saw — and
        decode cleanly.
        """
        cfg = FieldCodecConfig(
            codec="delta-rle", budget=ErrorBudget(relative=1e-15),
            temporal=True,
        )
        x = np.linspace(0, 1, 4096)
        base = np.sin(3.1 * x) + 0.5 * np.cos(7.3 * x)
        w = np.random.default_rng(22).standard_normal(base.shape)
        noise = base.min() + (w - w.min()) / (w.max() - w.min()) \
            * (base.max() - base.min())
        arrs = [base, base + 1e-4, noise, base + 2e-4]
        enc, dec = CodecContext(), CodecContext()
        codecs, params_by_step = [], {}
        for step, arr in enumerate(arrs):
            codec_id, params, data = _encode_in("T", arr, cfg, step, enc)
            codecs.append(codec_id)
            params_by_step[step] = params
            out = _decode_in("T", codec_id, params, data, arr.dtype,
                               arr.shape, step, dec)
            bound = cfg.budget.bound_for(arr)
            if codec_id == RAW:
                np.testing.assert_array_equal(out, arr)
            else:
                assert np.abs(out - arr).max() <= bound + 1e-15
        assert codecs == [DELTA_RLE, DELTA_RLE, RAW, DELTA_RLE]
        assert params_by_step[3].get("m") == "t"
        assert params_by_step[3]["ref"] == 1   # not the unseen step 2

    def test_grown_range_reseeds_spatially(self):
        """A spin-up field must not drag its early tiny qstep along."""
        enc = CodecContext()
        small = _smooth((6, 6, 6), seed=11, scale=1e-3)
        _encode_in("p", small, self._cfg(), 0, enc)
        big = _smooth((6, 6, 6), seed=11, scale=1.0)
        codec_id, params, data = _encode_in("p", big, self._cfg(), 1, enc)
        assert params.get("m") == "s"     # chain re-seeded, not reused
        assert codec_id == DELTA_RLE
        assert len(data) * 2 < big.nbytes  # and it still compresses

    def test_shape_change_reseeds_spatially(self):
        enc = CodecContext()
        _encode_in("p", _smooth((4, 4), seed=12), self._cfg(), 0, enc)
        arr = _smooth((6, 6), seed=12)
        _, params, _ = _encode_in("p", arr, self._cfg(), 1, enc)
        assert params.get("m") == "s"


def _payload(seed=0, step=1):
    rng = np.random.default_rng(seed)
    return StepPayload(
        step=step, time=0.25, rank=2,
        variables={
            "temperature": _smooth((4, 5, 5), seed=seed),
            "velocity": _smooth((4, 5, 5), seed=seed + 1, scale=2.0),
            "block0/geom": rng.normal(size=10),
            "cells": np.arange(12, dtype=np.int64),
        },
        attributes={"mesh": "box"},
    )


class TestMarshalRBP3:
    def test_roundtrip_within_budget(self):
        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        payload = _payload()
        enc, dec = CodecContext(), CodecContext()
        data = marshal_step(payload, codec=spec, context=enc)
        assert bytes(data[:4]) == b"RBP3"
        out = unmarshal_step(data, context=dec)
        assert out.step == payload.step and out.attributes == payload.attributes
        for name, arr in payload.variables.items():
            got = out.variables[name]
            assert got.shape == arr.shape and got.dtype == arr.dtype
            cfg = spec.config_for(name, arr.dtype)
            if cfg is None or cfg.budget.lossless:
                np.testing.assert_array_equal(got, arr)
            else:
                bound = cfg.budget.bound_for(arr)
                assert np.abs(got - arr).max() <= bound + 1e-12
        assert len(data) < len(marshal_step(payload))

    def test_geometry_and_int_fields_are_bit_exact(self):
        spec = CodecSpec.from_cli("delta-rle", "1e-2")
        payload = _payload()
        out = unmarshal_step(marshal_step(payload, codec=spec,
                                          context=CodecContext()),
                             context=CodecContext())
        np.testing.assert_array_equal(
            out.variables["block0/geom"], payload.variables["block0/geom"]
        )
        np.testing.assert_array_equal(
            out.variables["cells"], payload.variables["cells"]
        )

    def test_crc_covers_compressed_bytes(self):
        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        data = bytearray(marshal_step(_payload(), codec=spec,
                                      context=CodecContext()))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(CorruptPayloadError):
            unmarshal_step(bytes(data), context=CodecContext())

    def test_lossless_spec_emits_byte_identical_rbp2(self):
        payload = _payload()
        plain = bytes(marshal_step(payload))
        via_spec = bytes(marshal_step(payload, codec=CodecSpec.lossless()))
        assert via_spec == plain
        assert via_spec[:4] == b"RBP2"
        assert bytes(marshal_step(payload, codec=None)) == plain

    def test_rbp2_decodes_and_rbp1_is_rejected(self):
        payload = _payload()
        rbp2 = bytes(marshal_step(payload))
        assert rbp2[:4] == b"RBP2"
        out2 = unmarshal_step(rbp2)
        np.testing.assert_array_equal(
            out2.variables["temperature"], payload.variables["temperature"]
        )
        rbp1 = b"RBP1" + rbp2[8:]       # v1 framing: magic, no CRC
        with pytest.raises(CorruptPayloadError, match="bad magic"):
            unmarshal_step(rbp1)

    def test_decoded_fields_are_read_only_with_cow_escape(self):
        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        wire = bytes(marshal_step(_payload(), codec=spec,
                                  context=CodecContext()))
        out = unmarshal_step(wire, context=CodecContext())
        for arr in out.variables.values():
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            out.variables["temperature"][0, 0, 0] = 9.0
        writable = out.variables["temperature"].copy()
        writable[0, 0, 0] = 9.0
        assert out.variables["temperature"][0, 0, 0] != 9.0

    def test_mutation_never_corrupts_staged_payload(self):
        """The satellite regression: a consumer mutating a decoded
        field must not reach back into the staged wire bytes or any
        sibling decode of the same frame."""
        for spec in (None, CodecSpec.from_cli("delta-rle", "1e-3")):
            payload = _payload()
            wire = bytes(marshal_step(payload, codec=spec,
                                      context=CodecContext()))
            staged = bytes(wire)        # what a broker/replay cache holds
            first = unmarshal_step(wire, context=CodecContext())
            for name in ("temperature", "block0/geom"):
                with pytest.raises(ValueError):
                    first.variables[name].fill(-7.0)
            assert wire == staged       # wire bytes untouched
            second = unmarshal_step(wire, context=CodecContext())
            np.testing.assert_allclose(
                second.variables["temperature"],
                payload.variables["temperature"], atol=1e-2,
            )
            np.testing.assert_array_equal(
                second.variables["block0/geom"],
                payload.variables["block0/geom"],
            )


# -- batched codec: one vectorized pass per (config, dtype, shape) group ----

ROW_KINDS = ("smooth", "smooth", "smooth", "constant", "zeros", "signed_zeros",
             "nan", "inf", "zero_range", "overflow", "noise")


def _zoo_row(rng, kind, shape, dtype):
    """One field of the edge-case zoo, as `dtype`."""
    arr = _smooth(shape, seed=int(rng.integers(1 << 30)),
                  scale=10.0 ** rng.uniform(-3, 3)).astype(dtype)
    if arr.size == 0:
        return arr
    if kind == "constant":
        arr[...] = rng.normal()
    elif kind == "zeros":
        arr[...] = 0.0
    elif kind == "signed_zeros":
        arr[...] = 0.0
        arr.flat[::2] = -0.0
    elif kind == "nan":
        arr.flat[rng.integers(arr.size)] = np.nan
    elif kind == "inf":
        arr.flat[rng.integers(arr.size)] = rng.choice([-np.inf, np.inf])
    elif kind == "zero_range":      # distinct values, relative bound ~ 0
        arr = (1.0 + 1e-7 * np.arange(arr.size)).reshape(shape).astype(dtype)
    elif kind == "overflow":        # range overflows the dtype / quantizer
        arr = (arr * (1e300 if dtype == "<f8" else 1e37)).astype(dtype)
    elif kind == "noise":
        arr = rng.normal(size=shape).astype(dtype)
    return arr


BUDGETS = (
    ErrorBudget(relative=1e-3), ErrorBudget(relative=1e-9),
    ErrorBudget(absolute=0.05), ErrorBudget(absolute=1e-6, relative=1e-1),
    ErrorBudget(relative=1e-300), ErrorBudget(absolute=1e300),
)


def _zoo_batch(seed, temporal=True):
    """A random frame's worth of ``(name, array, config)`` fields."""
    rng = np.random.default_rng(seed)
    cfgs = [
        FieldCodecConfig("delta-rle", BUDGETS[rng.integers(len(BUDGETS))],
                         temporal=temporal),
        FieldCodecConfig("delta-rle", BUDGETS[rng.integers(len(BUDGETS))]),
        FieldCodecConfig("delta-rle", ErrorBudget(relative=1e-3)),
        FieldCodecConfig("raw"), None,
    ]
    shapes = [(216,), (216,), (6, 6, 6), (9,), (1,), (7, 3), (0,)]
    fields = []
    for i in range(int(rng.integers(1, 30))):
        cfg = cfgs[rng.choice(len(cfgs), p=[0.6, 0.1, 0.1, 0.1, 0.1])]
        shape = shapes[rng.integers(len(shapes))]
        dtype = "<f4" if rng.random() < 0.3 else "<f8"
        kind = ROW_KINDS[rng.integers(len(ROW_KINDS))]
        fields.append((f"b{i}/x", _zoo_row(rng, kind, shape, dtype), cfg))
    return fields


def _quanta(context):
    return {name: (step, qstep, q.shape, q.tobytes())
            for name, (step, qstep, q) in context._prev.items()}


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBatchedCodecEquivalence:
    """``encode_fields`` / ``decode_fields`` against field-at-a-time calls."""

    @pytest.mark.parametrize("seed", range(25))
    def test_batch_equals_field_at_a_time(self, seed):
        fields = _zoo_batch(seed)
        enc_b, enc_1 = CodecContext(), CodecContext()
        dec_b, dec_1, dec_n = CodecContext(), CodecContext(), CodecContext()
        for step in range(3):
            batched = encode_fields(fields, step, enc_b)
            single = [_encode_in(*f, step, enc_1) for f in fields]
            assert batched == single            # ids, params, bytes
            assert _quanta(enc_b) == _quanta(enc_1)
            assert enc_b.stats.fields.keys() == enc_1.stats.fields.keys()
            for name, entry in enc_b.stats.fields.items():
                other = enc_1.stats.fields[name]
                for key in ("raw_bytes", "wire_bytes", "codec"):
                    assert entry[key] == other[key]
            blocks = [(name, *block, arr.dtype, arr.shape)
                      for (name, arr, _), block in zip(fields, batched)]
            out_b = decode_fields(blocks, step, dec_b)
            out_1 = [_decode_in(*block, step, dec_1) for block in blocks]
            with naive_mode():
                out_n = decode_fields(blocks, step, dec_n)
            _assert_same_arrays(out_b, out_1)
            _assert_same_arrays(out_n, out_1)
            assert _quanta(dec_b) == _quanta(dec_1) == _quanta(dec_n)
            assert _quanta(dec_b) == _quanta(enc_b)
            # next step: drift every field a little, keep its kind
            fields = [(n, (a * 1.001 + 1e-4).astype(a.dtype), c)
                      for n, a, c in fields]

    def test_interleaved_chain_with_fallbacks_stays_in_lockstep(self):
        """The PR 8 desync class, batched: rows that go raw or re-seed
        spatially mid-chain must leave both sides' references where a
        field-at-a-time run leaves them, whichever entry point runs."""
        cfg = FieldCodecConfig("delta-rle", ErrorBudget(relative=1e-6),
                               temporal=True)
        tight = FieldCodecConfig("delta-rle", ErrorBudget(relative=1e-15),
                                 temporal=True)
        rng = np.random.default_rng(31)
        base = [_smooth((216,), seed=s) for s in range(12)]
        x = np.linspace(0, 1, 4096)
        long = np.sin(3.1 * x) + 0.5 * np.cos(7.3 * x)
        enc_m, dec_m = CodecContext(), CodecContext()      # mixed entry points
        enc_1, dec_1 = CodecContext(), CodecContext()      # always one row
        modes = []
        for step in range(8):
            fields = []
            for i, arr in enumerate(base):
                arr = arr + 1e-5 * step
                if i % 4 == 1:
                    # under the tight budget white noise (in the base's
                    # range, so qsteps stay compatible) costs more than raw
                    arr = long + 1e-4 * step
                    if step in (2, 5):
                        w = rng.standard_normal(long.shape)
                        arr = long.min() + (w - w.min()) / (w.max() - w.min()) \
                            * (long.max() - long.min())
                if i % 4 == 2 and step >= 4:
                    arr = arr * 40.0                         # range grows
                if i == 3 and step == 3:
                    arr = arr.copy()
                    arr[7] = np.inf
                fields.append((f"f{i}", arr, tight if i % 4 == 1 else cfg))
            single = [_encode_in(*f, step, enc_1) for f in fields]
            if step % 2:
                mixed = encode_fields(fields, step, enc_m)
            else:       # half the rows batched, the rest one at a time
                mixed = encode_fields(fields[:6], step, enc_m) + [
                    _encode_in(*f, step, enc_m) for f in fields[6:]
                ]
            assert mixed == single
            assert _quanta(enc_m) == _quanta(enc_1)
            blocks = [(f[0], *block, f[1].dtype, f[1].shape)
                      for f, block in zip(fields, single)]
            want = [_decode_in(*block, step, dec_1) for block in blocks]
            if step % 2:
                got = [_decode_in(*b, step, dec_m) for b in blocks[:5]] \
                    + decode_fields(blocks[5:], step, dec_m)
            else:
                got = decode_fields(blocks, step, dec_m)
            _assert_same_arrays(got, want)
            assert _quanta(dec_m) == _quanta(dec_1) == _quanta(enc_1)
            modes.append([(b[0], b[1].get("m")) for b in single])
        assert (RAW, None) in modes[2] and (RAW, None) in modes[3]
        assert (DELTA_RLE, "s") in modes[4]      # re-seeded mid-chain
        assert (DELTA_RLE, "t") in modes[7]

    def test_f4_bound_is_taken_in_the_field_dtype(self):
        """float32 max - min rounds differently from float64; the batch
        must use the same range `ErrorBudget.bound_for` does."""
        rng = np.random.default_rng(5)
        budget = ErrorBudget(relative=1e-3)
        rows = [(rng.normal(size=216) * 10.0 ** rng.uniform(-3, 3))
                .astype(np.float32) for _ in range(40)]
        cfg = FieldCodecConfig("delta-rle", budget)
        blocks = encode_fields([(f"r{i}", r, cfg) for i, r in enumerate(rows)],
                               0)
        narrow = [float(r.max() - r.min()) for r in rows]       # in float32
        wide = [float(r.max()) - float(r.min()) for r in rows]
        assert narrow != wide       # the two ranges do round differently
        for row, vrange, (codec_id, params, _) in zip(rows, narrow, blocks):
            assert codec_id == DELTA_RLE
            assert params["q"] == 2.0 * (1e-3 * vrange)
            assert budget.bound_for(row) == 1e-3 * vrange

    def test_repeated_name_chains_on_itself_like_one_row_calls(self):
        cfg = FieldCodecConfig("delta-rle", ErrorBudget(relative=1e-3),
                               temporal=True)
        a = _smooth((216,), seed=1)
        fields = [("T", a, cfg), ("T", a + 1e-4, cfg)]
        enc_b, enc_1 = CodecContext(), CodecContext()
        batched = encode_fields(fields, 4, enc_b)
        assert batched == [_encode_in(*f, 4, enc_1) for f in fields]
        assert batched[1][1] == {"q": batched[0][1]["q"], "m": "t", "ref": 4}
        blocks = [("T", *b, a.dtype, a.shape) for b in batched]
        dec_b, dec_1 = CodecContext(), CodecContext()
        _assert_same_arrays(decode_fields(blocks, 4, dec_b),
                            [_decode_in(*b, 4, dec_1) for b in blocks])


def _golden_payloads(steps=20, blocks=64):
    """A 20-step, 64-block stream of polynomial fields and seeded noise.

    No libm calls, so the inputs (and with them the frames) are
    bit-stable; the fields walk through every per-row decision: noise
    that falls back to raw mid-chain, a range that grows (spatial
    re-seed), a NaN, a constant, a float32 block.
    """
    rng = np.random.default_rng(2023)
    x = np.linspace(-1.0, 1.0, 216)
    noise = rng.standard_normal((steps, 216))
    for step in range(steps):
        t = 0.05 * step
        variables = {}
        for b in range(blocks):
            c = 0.1 * b
            if step == 0:
                variables[f"block{b}/geom"] = x * (1.0 + c)
            temp = (1.0 - x * x) * (c + t) + 0.5 * x * x * x * t
            if b == 5:
                temp = noise[step] * 1e-2 if step % 4 == 2 else temp
            if b == 6:
                temp = temp * (1.0 + 9.0 * (step >= 10))
            if b == 7 and step == 3:
                temp = temp.copy()
                temp[17] = np.nan
            if b == 8:
                temp = np.full(216, c + (step >= 5))
            if b == 9:
                temp = (temp + 0.123).astype(np.float32)
            variables[f"block{b}/array/temperature"] = temp
        variables["block0/ids"] = np.arange(32, dtype=np.int64) + step
        yield StepPayload(step=step, time=t, rank=0, variables=variables,
                          attributes={"has_geometry": "1" if step == 0 else "0"})


class TestGoldenFrames:
    def test_rbp3_frames_match_the_field_at_a_time_encoder(self):
        """Digest recorded with the per-field encoder of PR 8-14: the
        batched codec must not move one byte of the wire."""
        spec = CodecSpec.from_cli("delta-rle", "1e-3", temporal=True)
        enc, dec = CodecContext(), CodecContext()
        digest = hashlib.blake2b(digest_size=16)
        total = 0
        for payload in _golden_payloads():
            frame = bytes(marshal_step(payload, codec=spec, context=enc))
            digest.update(frame)
            total += len(frame)
            out = unmarshal_step(frame, context=dec)
            assert list(out.variables) == list(payload.variables)
        assert total == 783331
        assert digest.hexdigest() == "45be9e16d9497d7eba1d24fcd79cf4ff"
        assert _quanta(enc) == _quanta(dec)


def _frame_fields(frame):
    """``(header_offset, data_offset, data_len)`` of each RBP3 variable."""
    view = memoryview(frame)
    step, time, rank, attr_len = struct.unpack_from("<qdqI", view, 8)
    off = 8 + struct.calcsize("<qdqI") + attr_len
    (nvars,) = struct.unpack_from("<I", view, off)
    off += 4
    out = []
    for _ in range(nvars):
        start = off
        (name_len,) = struct.unpack_from("<H", view, off)
        off += 2 + name_len + 2
        (ndim,) = struct.unpack_from("<B", view, off)
        off += 1 + 8 * ndim + 1
        (params_len,) = struct.unpack_from("<H", view, off)
        off += 2 + params_len
        (size,) = struct.unpack_from("<q", view, off)
        off += 8
        out.append((start, off, size))
        off += size
    return out


def _with_block(frame, index, data):
    """`frame` with variable `index`'s data replaced (length and CRC fixed)."""
    _, off, size = _frame_fields(frame)[index]
    body = bytearray(frame[8:off - 8]) + struct.pack("<q", len(data)) \
        + data + frame[off + size:]
    return b"RBP3" + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) \
        + bytes(body)


def _outcome(call):
    try:
        return "ok", [a.tobytes() for a in call()]
    except Exception as exc:        # the test compares whatever comes out
        return type(exc), str(exc)


class TestHostileBlocksThroughTheBatch:
    """Bad blocks in a 64-field frame: the batched decoder must fail the
    way the one-row decoder does, and never write outside a row."""

    @pytest.fixture(scope="class")
    def frames(self):
        spec = CodecSpec.from_cli("delta-rle", "1e-3", temporal=True)
        enc = CodecContext()
        payloads = list(_golden_payloads(steps=2))
        return [bytes(marshal_step(p, codec=spec, context=enc))
                for p in payloads]

    def _blocks(self, frame):
        from repro.adios.marshal import _read_frame

        payload, blocks = _read_frame(frame)
        return payload.step, blocks

    def _check(self, frames, hostile_frame):
        """Batched == one row at a time: outcome and context afterwards."""
        outcomes = []
        for batched in (True, False):
            context = CodecContext()
            unmarshal_step(frames[0], context=context)
            step, blocks = self._blocks(hostile_frame)
            if batched:
                call = lambda: decode_fields(blocks, step, context)
            else:
                call = lambda: [_decode_in(*b, step, context)
                                for b in blocks]
            outcomes.append((_outcome(call), _quanta(context)))
        assert outcomes[0] == outcomes[1]
        kind = outcomes[0][0][0]
        assert kind == "ok" or issubclass(kind, CodecError)
        return outcomes[0][0]

    def test_random_mutations_truncations_extensions(self, frames):
        rng = np.random.default_rng(77)
        fields = _frame_fields(frames[1])
        delta = [i for i, (_, _, size) in enumerate(fields) if 0 < size < 1728]
        failed = 0
        for trial in range(150):
            index = delta[rng.integers(len(delta))]
            _, off, size = fields[index]
            data = bytearray(frames[1][off:off + size])
            how = trial % 4
            if how == 0:
                data[rng.integers(len(data))] = int(rng.integers(256))
            elif how == 1:
                data[rng.integers(len(data))] ^= 0x80
            elif how == 2:
                del data[int(rng.integers(len(data))):]
            else:
                data += bytes(rng.integers(0, 256, int(rng.integers(1, 12)),
                                           dtype=np.uint8))
            outcome = self._check(frames, _with_block(frames[1], index,
                                                      bytes(data)))
            failed += outcome[0] != "ok"
        assert failed > 50      # the mutations do reach the error paths

    @pytest.mark.parametrize("gap", [2**63, 2**64 - 1, 216, 215])
    def test_crafted_gap_cannot_leave_its_row(self, frames, gap):
        """One nonzero whose gap is huge / wraps / is just past the row.

        The rows of a batch share one segmented prefix sum: a gap that
        reached the next row's cells would corrupt a *valid* neighbour.
        """
        fields = _frame_fields(frames[1])
        index = next(i for i, (_, _, size) in enumerate(fields)
                     if 0 < size < 1728)
        data = (
            _leb128(np.array([216, 1], dtype=np.uint64))
            + _leb128(np.array([gap], dtype=np.uint64))
            + _leb128(
                stages.zigzag_encode(np.array([7], dtype=np.int64)))
        )
        outcome = self._check(frames, _with_block(frames[1], index, data))
        if gap == 215:          # last cell of the row: legal
            assert outcome[0] == "ok"
        else:
            assert outcome == (CodecError, "RLE gap runs past the array")

    def test_gap_run_crossing_a_row_boundary(self, frames):
        """Gaps that are each in range but together overrun the row."""
        fields = _frame_fields(frames[1])
        index = next(i for i, (_, _, size) in enumerate(fields)
                     if 0 < size < 1728)
        data = (
            _leb128(np.array([216, 3], dtype=np.uint64))
            + _leb128(np.array([100, 100, 100], dtype=np.uint64))
            + _leb128(
                stages.zigzag_encode(np.array([1, 2, 3], dtype=np.int64)))
        )
        hostile = _with_block(frames[1], index, data)
        assert self._check(frames, hostile) == (
            CodecError, "RLE gap runs past the array")
        with pytest.raises(CodecError, match="gap runs past"):
            unmarshal_step(hostile, context=CodecContext())

    def test_bad_row_does_not_disturb_the_kernel_rows_around_it(self):
        good = stages.rle_encode_rows(
            np.arange(3 * 216, dtype=np.int64).reshape(3, 216) % 5
        )
        assert stages.rle_decode_rows(good, 216).shape == (3, 216)
        short = [good[0], good[1][:-1], good[2]]
        assert stages.rle_decode_rows(short, 216) is None
        assert stages.rle_decode_rows(good, 215) is None
        assert stages.rle_decode_rows([good[0], b"\x01", good[2]], 216) is None


class TestTruncatedFrames:
    """Header parsing is total: a short read is a corrupt payload."""

    def _frames(self):
        payload = _payload()
        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        rbp2 = bytes(marshal_step(payload))
        rbp3 = bytes(marshal_step(payload, codec=spec, context=CodecContext()))
        return {"RBP1": b"RBP1" + rbp2[8:], "RBP2": rbp2, "RBP3": rbp3}

    @pytest.mark.parametrize("version", ["RBP1", "RBP2", "RBP3"])
    def test_every_prefix_is_a_corrupt_payload(self, version):
        frame = self._frames()[version]
        if version == "RBP1":       # no CRC: the whole frame is rejected too
            with pytest.raises(CorruptPayloadError, match="bad magic"):
                unmarshal_step(frame, context=CodecContext())
        else:
            assert unmarshal_step(frame, context=CodecContext()).step == 1
        for n in range(len(frame)):
            for naive in (False, True):
                with pytest.raises(CorruptPayloadError):
                    if naive:
                        with naive_mode():
                            unmarshal_step(frame[:n], context=CodecContext())
                    else:
                        unmarshal_step(frame[:n], context=CodecContext())

    @pytest.mark.parametrize("magic", [b"RBP2", b"RBP3"])
    def test_crc_valid_frame_shorter_than_its_header(self, magic):
        for body in (b"", b"\x00" * 5, b"\x00" * 27):
            frame = magic + struct.pack("<I", zlib.crc32(body)) + body
            with pytest.raises(CorruptPayloadError):
                unmarshal_step(frame)
        for frame in (b"RBP3xx", b"RBP2\x00", b"RBP1", b""):
            with pytest.raises(CorruptPayloadError):
                unmarshal_step(frame)

    def test_short_read_counts_a_corrupt_step_at_the_endpoint(self):
        from repro.adios.engine import SSTBroker
        from repro.fleet import Directive, FleetCoordinator

        frame = self._frames()["RBP3"]
        broker = SSTBroker(num_writers=1, queue_limit=3)
        broker.put(0, frame[:6], step=0)
        broker.put(0, frame[:40], step=1)
        broker.put(0, frame, step=2)
        broker.close_writer(0)
        coord = FleetCoordinator(broker, num_writers=1, pool_size=1,
                                 lease_timeout=0.25)
        coord.join(0)
        task = coord.poll(0)
        assert coord.corrupt_steps == 2
        assert list(task.payloads) == [0] and task.payloads[0].step == 1
        coord.commit(0, task)
        assert coord.poll(0) is Directive.STOP


class TestCodecSpec:
    def test_from_cli_variants(self):
        assert CodecSpec.from_cli(None) is None
        assert CodecSpec.from_cli("none") is None
        assert not CodecSpec.from_cli("lossless").active
        spec = CodecSpec.from_cli("delta-rle", "abs:0.5")
        assert spec.active
        cfg = spec.config_for("temperature", np.float64)
        assert cfg.codec == "delta-rle" and cfg.budget.absolute == 0.5
        for name in ("gzip", "raw", "constant", "bitplane-rle"):
            with pytest.raises(ValueError, match="none, lossless, delta-rle"):
                CodecSpec.from_cli(name)

    def test_geometry_globs_pin_raw(self):
        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        for name in ("block0/geom", "mesh/points", "cells"):
            assert spec.config_for(name, np.float64).codec == "raw"
        assert spec.config_for("temperature", np.float64).codec == "delta-rle"

    def test_int_fields_pass_through(self):
        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        assert spec.config_for("ids", np.int64) is None

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget(relative=-1.0)
        with pytest.raises(ValueError):
            ErrorBudget(absolute=0.0)


class TestHybridRouter:
    def test_forced_modes(self):
        for mode in ("insitu", "intransit"):
            router = HybridRouter(mode=mode)
            d = router.decide(0, raw_bytes=10**9)
            assert isinstance(d, RouteDecision) and d.route == mode

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RouterPolicy(wire_budget_bytes=0)
        with pytest.raises(ValueError):
            HybridRouter(mode="teleport")

    def test_streams_within_budget(self):
        router = HybridRouter(RouterPolicy(wire_budget_bytes=1 << 20))
        for step in range(5):
            assert router.decide(step, raw_bytes=1000).route == "intransit"
        assert router.route_counts["intransit"] == 5

    def test_hysteresis_then_insitu_then_reentry(self):
        router = HybridRouter(RouterPolicy(wire_budget_bytes=1000))
        # first ratio observation: 4x compression
        router.observe(raw_bytes=4000, wire_bytes=1000)
        # over budget: est 8000/4 = 2000 > 1000; decision entering the
        # step still streams for two (the hysteresis) steps, then parks
        assert router.decide(0, 8000).route == "intransit"
        assert router.decide(1, 8000).route == "intransit"
        assert router.decide(2, 8000).route == "insitu"
        # back under the re-entry margin just as long, then streams
        assert router.decide(3, 2000).route == "insitu"
        assert router.decide(4, 2000).route == "insitu"
        assert router.decide(5, 2000).route == "intransit"

    def test_parked_router_probes(self):
        router = HybridRouter(RouterPolicy(wire_budget_bytes=1000))
        # 5x over budget: too much to stream, not enough to drop
        routes = [router.decide(s, 5000).route for s in range(24)]
        # parked after two steps, probing every 16th parked step
        assert routes[2:17] == ["insitu"] * 15
        assert routes[17] == "intransit"      # periodic probe while parked
        assert routes.count("insitu") > routes.count("intransit")

    def test_drop_when_no_insitu_and_far_over(self):
        router = HybridRouter(RouterPolicy(wire_budget_bytes=1000),
                              insitu_available=False)
        router.decide(0, 10**9)
        router.decide(1, 10**9)
        d = router.decide(2, 10**9)
        assert d.route == "drop"
        assert router.route_counts["drop"] >= 1

    def test_first_observation_replaces_prior(self):
        router = HybridRouter()
        assert router.ratio_ewma == 1.0
        router.observe(raw_bytes=8000, wire_bytes=1000)
        assert router.ratio_ewma == pytest.approx(8.0)
        router.observe(raw_bytes=4000, wire_bytes=1000)   # then EWMA-smoothed
        assert 4.0 < router.ratio_ewma < 8.0

    def test_stats_and_decisions(self):
        router = HybridRouter(RouterPolicy(wire_budget_bytes=1 << 20))
        router.decide(0, 100)
        s = router.stats()
        assert s["mode"] == "hybrid" and s["routes"]["intransit"] == 1
        assert s["decisions"][-1]["step"] == 0


class TestRouteCounters:
    def test_labeled_route_counter_exports(self):
        from repro.observe import Telemetry, active

        tel = Telemetry.create(rank=0)
        with active(tel):
            router = HybridRouter(RouterPolicy(wire_budget_bytes=1 << 20))
            router.decide(0, 100)
            router.decide(1, 100)
            forced = HybridRouter(mode="insitu")
            forced.decide(0, 100)
        text = tel.metrics.to_prometheus()
        assert 'repro_router_route_total{rank="0",route="intransit"} 2' in text
        assert 'repro_router_route_total{rank="0",route="insitu"} 1' in text
        # one HELP/TYPE pair per metric name, not per label set
        assert text.count("# HELP repro_router_route_total") == 1

    def test_labeled_counters_merge_by_label_set(self):
        from repro.observe.metrics import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_router_route_total", "", {"route": "drop"}).inc(2)
        b.counter("repro_router_route_total", "", {"route": "drop"}).inc(3)
        b.counter("repro_router_route_total", "", {"route": "insitu"}).inc(1)
        out = a.merge(b).to_json()["metrics"]
        assert out['repro_router_route_total{route="drop"}']["value"] == 5
        assert out['repro_router_route_total{route="insitu"}']["value"] == 1


class TestServePlane:
    def test_framestore_accounts_codec_frames(self):
        from repro.serve import ServeMesh

        mesh = ServeMesh(relays=1, history=4, start=False)
        viewer = mesh.connect(streams=("fields",))
        mesh.publish("fields", 0, 0.0, b"x" * 100,
                     encoding="rbp3", raw_nbytes=400)
        mesh.publish("catalyst", 0, 0.0, b"y" * 50)
        mesh.settle()
        (f,) = viewer.drain()
        assert f.encoding == "rbp3" and f.raw_nbytes - len(f.data) == 300
        s = mesh.stats()["store"]
        assert s["codec_raw_bytes"] == 400
        assert s["codec_wire_bytes"] == 100
        assert s["codec_bytes_saved"] == 300

    def _routes(self, router):
        """(status, body) of ``GET /routes`` on a server over a quiet mesh."""
        from repro.serve import HttpFrameServer, ServeMesh
        from test_serve_transport import _get

        server = HttpFrameServer(
            ServeMesh(relays=1, start=False), None, router=router
        )
        server.start()
        try:
            status, _headers, body = _get(server, "/routes")
            return status, body
        finally:
            server.stop()

    def test_routes_endpoint(self):
        import json

        router = HybridRouter(RouterPolicy(wire_budget_bytes=1 << 20))
        router.decide(0, 100)
        status, body = self._routes(router)
        body = json.loads(body)
        assert status == 200
        assert body["routes"]["intransit"] == 1
        assert body["decisions"][0]["route"] == "intransit"

    def test_routes_endpoint_without_router_is_404(self):
        assert self._routes(None)[0] == 404
