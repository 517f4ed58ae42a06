"""Per-field codec pipelines: budgets, specs, contexts, stats.

A :class:`CodecSpec` names, per field (with a float-field default),
which pipeline to run and under what :class:`ErrorBudget`.  The
pipelines compose the :mod:`repro.codec.stages` primitives:

``delta-rle``
    quantize under the budget -> delta (spatial along the fastest
    axis, or temporal vs. the previous step's quanta when enabled and
    a compatible reference exists) -> zero-gap RLE/varint.
``raw``
    verbatim bytes — the lossless path, and the automatic fallback
    whenever the lossy pipeline cannot honor its bound (non-finite
    values, quantizer overflow) or would not actually shrink the
    field.

``delta-rle`` is the only lossy pipeline.  It has no entropy stage:
stored bytes get theirs once, where they are stored (the BP file
engines deflate each whole frame), and the wire stays cheap.

Every encode is self-describing: the per-field params that went into
the wire block are all a decoder needs (plus, for temporal deltas
only, the previous step's quanta from a :class:`CodecContext`).

The pipelines are batch-first: :func:`encode_fields` /
:func:`decode_fields` take all fields of a frame, stack the lossy ones
that share a (config, dtype, shape) into one matrix and run every
stage once over it, each row still falling back on its own;
:func:`encode_field` / :func:`decode_field` are the one-row case and
the wire bytes do not depend on how fields are batched.
:func:`decode_fields` dispatches to the stages' reference decoders,
row by row, under :func:`repro.perf.naive_mode`, so the whole decode
side has a naive-mode twin.
"""

from __future__ import annotations

import fnmatch
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.codec.stages import (
    CodecError,
    MissingReferenceError,
    delta_decode,
    delta_encode,
    dequantize,
    quantize_rows,
    rle_decode,
    rle_decode_rows,
    rle_encode_rows,
)
from repro.observe.session import get_telemetry
from repro.perf import config

__all__ = [
    "ErrorBudget",
    "FieldCodecConfig",
    "CodecSpec",
    "CodecContext",
    "CodecStats",
    "encode_field",
    "encode_fields",
    "decode_field",
    "decode_fields",
    "CODEC_NAMES",
    "CLI_CODECS",
]

#: wire codec ids (u8 in the RBP3 field block)
RAW, CONSTANT, DELTA_RLE = 0, 1, 2
CODEC_NAMES = {RAW: "raw", CONSTANT: "constant", DELTA_RLE: "delta-rle"}

#: the ``--codec`` vocabulary :meth:`CodecSpec.from_cli` accepts
CLI_CODECS = ("none", "lossless", "delta-rle")

_FLOAT_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))

#: variable families that define the mesh itself (see the ADIOS
#: analysis adaptor's put() names); always lossless under from_cli
_GEOMETRY_GLOBS = ("*/geom", "*/points", "*/cells", "geom", "points", "cells")


@dataclass(frozen=True)
class ErrorBudget:
    """Per-field error bound: absolute, range-relative, or both.

    The effective absolute bound for an array is the tighter of
    ``absolute`` and ``relative * (max - min)``; with neither set the
    budget is lossless and fields pass through raw.
    """

    absolute: float | None = None
    relative: float | None = None

    def __post_init__(self):
        for name in ("absolute", "relative"):
            v = getattr(self, name)
            if v is not None and (v <= 0 or not np.isfinite(v)):
                raise ValueError(f"{name} error bound must be positive, got {v!r}")

    @property
    def lossless(self) -> bool:
        return self.absolute is None and self.relative is None

    def bound_for(self, arr: np.ndarray) -> float | None:
        """Effective absolute bound for `arr`; None means lossless."""
        if self.lossless:
            return None
        finite = arr[np.isfinite(arr)] if arr.size else arr
        if not finite.size:
            finite = np.zeros(1)
        return float(self.bounds(finite.min(), finite.max()))

    def bounds(self, vmin: np.ndarray, vmax: np.ndarray) -> np.ndarray:
        """:meth:`bound_for` for many fields, from their minima and maxima.

        The range is taken in the fields' own dtype before widening, so
        an ``<f4`` field gets the same bound (and bytes) either way.
        """
        out = np.full(np.shape(vmin), np.inf)
        if self.absolute is not None:
            out = np.minimum(out, self.absolute)
        if self.relative is not None:
            with np.errstate(over="ignore"):
                vrange = (vmax - vmin).astype(np.float64)
            out = np.minimum(out, self.relative * vrange)
        return out


@dataclass(frozen=True)
class FieldCodecConfig:
    """How one field is encoded."""

    codec: str = "delta-rle"
    budget: ErrorBudget = field(default_factory=ErrorBudget)
    temporal: bool = False      # delta vs previous step when possible

    def __post_init__(self):
        if self.codec not in ("raw", "delta-rle"):
            raise ValueError(
                f"unknown codec {self.codec!r}; choose from raw, delta-rle"
            )


class CodecSpec:
    """Which pipeline each payload field runs through.

    ``default`` applies to float fields without an explicit entry;
    integer/uint fields always pass through raw (they are ids and
    connectivity — never lossy).  A spec whose default and field table
    are all lossless is *inactive*: :func:`repro.adios.marshal.
    marshal_step` then emits the plain ``RBP2`` frame, byte-identical
    to an uncompressed run.
    """

    def __init__(
        self,
        default: FieldCodecConfig | None = None,
        fields: dict[str, FieldCodecConfig] | None = None,
        name: str = "custom",
    ):
        self.default = default
        self.fields = dict(fields or {})
        self.name = name

    @property
    def active(self) -> bool:
        """False when every field would pass through losslessly raw."""
        configs = list(self.fields.values())
        if self.default is not None:
            configs.append(self.default)
        return any(
            c.codec != "raw" and not c.budget.lossless for c in configs
        )

    def config_for(self, name: str, dtype) -> FieldCodecConfig | None:
        """The pipeline for one field; None means raw passthrough.

        `fields` keys match exactly first, then as glob patterns in
        insertion order, so ``*/geom``-style entries can pin whole
        variable families (geometry!) to the raw path.
        """
        cfg = self.fields.get(name)
        if cfg is None:
            for pattern, pcfg in self.fields.items():
                if fnmatch.fnmatchcase(name, pattern):
                    cfg = pcfg
                    break
        if cfg is None:
            cfg = self.default
        if cfg is None or np.dtype(dtype) not in _FLOAT_DTYPES:
            return None
        return cfg

    @classmethod
    def lossless(cls) -> "CodecSpec":
        """The identity spec: marshal emits byte-identical RBP2."""
        return cls(default=None, name="lossless")

    @classmethod
    def from_cli(
        cls, codec: str | None, error_budget: str | float | None = None,
        temporal: bool = False,
    ) -> "CodecSpec | None":
        """Build a spec from ``--codec`` / ``--error-budget`` strings.

        `codec` is one of :data:`CLI_CODECS` (or None, which is
        ``none``).  ``--error-budget`` accepts ``1e-3`` (relative),
        ``rel:1e-3`` or ``abs:0.05``; the default is relative 1e-3.
        """
        if codec not in (None, *CLI_CODECS):
            raise ValueError(
                f"unknown codec {codec!r}; choose from {', '.join(CLI_CODECS)}"
            )
        if codec in (None, "none"):
            return None
        if codec == "lossless":
            return cls.lossless()
        budget = ErrorBudget(relative=1e-3)
        if error_budget is not None:
            text = str(error_budget)
            if text.startswith("abs:"):
                budget = ErrorBudget(absolute=float(text[4:]))
            elif text.startswith("rel:"):
                budget = ErrorBudget(relative=float(text[4:]))
            else:
                budget = ErrorBudget(relative=float(text))
        return cls(
            default=FieldCodecConfig(codec=codec, budget=budget,
                                     temporal=temporal),
            # geometry defines where every sample lives — a lossy mesh
            # is a different mesh, so these channels always go raw
            fields={p: FieldCodecConfig(codec="raw") for p in _GEOMETRY_GLOBS},
            name=codec,
        )


@dataclass
class CodecStats:
    """An encoder's raw-vs-wire accounting, aggregated and per field.

    Its seconds are the ``codec.encode`` / ``codec.decode`` spans."""

    raw_bytes: int = field(default=0, init=False)
    wire_bytes: int = field(default=0, init=False)
    fields: dict[str, dict] = field(default_factory=dict, init=False)

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.wire_bytes if self.wire_bytes else 1.0

    def record(self, name: str, raw: int, wire: int, codec_id: int) -> None:
        self.raw_bytes += raw
        self.wire_bytes += wire
        entry = self.fields.setdefault(name, {"raw_bytes": 0, "wire_bytes": 0})
        entry["codec"] = CODEC_NAMES[codec_id]
        entry["raw_bytes"] += raw
        entry["wire_bytes"] += wire

    def as_dict(self) -> dict:
        return {
            "raw_bytes": self.raw_bytes,
            "wire_bytes": self.wire_bytes,
            "ratio": self.ratio,
            "fields": {k: dict(v) for k, v in self.fields.items()},
        }


class CodecContext:
    """Per-stream codec state: temporal references plus, on the
    encoding side, the stream's :class:`CodecStats`.

    One context per directed stream (one per writer engine, one per
    writer rank on the reader side).  Thread-safe so a broker-shared
    decode context survives concurrent pollers, though the fleet
    decodes each writer's stream in ingest order anyway.
    """

    def __init__(self):
        self.stats = CodecStats()
        self._prev: dict[str, tuple[int, float, np.ndarray]] = {}
        self._lock = threading.Lock()

    def remember(self, name: str, step: int, qstep: float, q: np.ndarray) -> None:
        with self._lock:
            self._prev[name] = (step, qstep, q)

    def reference(self, name: str) -> tuple[int, float, np.ndarray] | None:
        with self._lock:
            return self._prev.get(name)


def _within_bound(q, qstep, a64, bound, dtype) -> np.ndarray:
    """Per row: does the decoder's ``(q * qstep).astype(dtype)`` stay
    within `bound` of the field?  Overflowed rows come out False."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs((q * qstep[:, None]).astype(dtype) - a64)
    return err.max(axis=1, initial=0.0) <= bound


def _encode_group(names, arrs, cfg, step, context) -> list:
    """Run same-(config, dtype, shape) fields through ``delta-rle``.

    The fields are stacked into an ``(F, n)`` matrix and every stage —
    budget, quantize, delta, RLE, varint — runs once over it, while each
    row still decides for itself.  A row left at None goes out raw: it
    is non-finite (only raw is exact), its bound is zero or overflows
    the quantizer, its reconstruction misses the bound even at half
    the step, or its block would not shrink.
    """
    out: list = [None] * len(arrs)
    shape, nbytes = arrs[0].shape, arrs[0].nbytes
    a = (arrs[0] if len(arrs) == 1 else np.stack(arrs)).reshape(len(arrs), -1)
    idx = np.flatnonzero(np.isfinite(a).all(axis=1))
    if idx.size < len(arrs):
        a = a[idx]
    vmin, vmax = a.min(axis=1), a.max(axis=1)
    bound = cfg.budget.bounds(vmin, vmax)
    flat = vmin == vmax
    for j in np.flatnonzero(flat):
        # constant field: one value reconstructs it exactly
        out[idx[j]] = (CONSTANT, {"v": float(vmin[j])}, b"")
    live = ~flat & (bound > 0)
    if not live.all():
        idx, a, bound = idx[live], a[live], bound[live]
    if not idx.size:
        return out

    # quantize under the bound, then the cheapest valid delta
    qstep = 2.0 * bound
    refs: dict[int, tuple] = {}         # row -> its usable temporal reference
    if cfg.temporal and context is not None:
        for j, i in enumerate(idx):
            ref = context.reference(names[i])
            # reuse the reference's step when it is at least as tight as the
            # one this step needs — the bound still holds and the temporal
            # chain survives small per-step drifts in the field's range.
            # But not *arbitrarily* tighter: a spin-up field whose range has
            # since grown (pebble-bed pressure) would drag a uselessly fine
            # early-step qstep through the whole run and quantize itself out
            # of compressibility, so a reference finer than a quarter of
            # today's step re-seeds the chain spatially instead.
            if ref is not None and 0.25 * qstep[j] <= ref[1] <= qstep[j] \
                    and ref[2].shape == shape:
                refs[j], qstep[j] = ref, ref[1]
    a64 = np.asarray(a, dtype=np.float64)
    q, fits = quantize_rows(a64, qstep)
    within = _within_bound(q, qstep, a64, bound, a.dtype)
    missed = np.flatnonzero(fits & ~within)
    fits &= within
    if missed.size:
        # half a step of quantum error plus the rounding of a/qstep and
        # q*qstep can land an ulp past the bound: requantize those rows
        # spatially at half the step (or, failing that, ship them raw)
        for j in missed:
            refs.pop(j, None)
        qstep[missed] = bound[missed]
        q[missed], fits[missed] = quantize_rows(a64[missed], qstep[missed])
        fits[missed] &= _within_bound(q[missed], qstep[missed], a64[missed],
                                      bound[missed], a.dtype)
    q[~fits] = 0.0
    q = q.astype(np.int64)
    deltas = delta_encode(q, axis=1)
    if refs:
        rows = list(refs)
        prev = np.stack([refs[j][2] for j in rows]).reshape(len(rows), -1)
        deltas[rows] = q[rows] - prev
    datas = rle_encode_rows(deltas)
    for j, i in enumerate(idx):
        # a row that goes out raw is not remembered either: the decoder
        # never sees its quanta, so the encoder must not reference them
        # later — keep the last *shipped* reference on both sides
        if fits[j] and len(datas[j]) < nbytes:
            params = {"q": float(qstep[j]), "m": "t" if j in refs else "s"}
            if j in refs:
                params["ref"] = refs[j][0]
            if context is not None:
                context.remember(names[i], step, params["q"], q[j].reshape(shape))
            out[i] = (DELTA_RLE, params, datas[j])
    return out


def encode_fields(
    fields: list[tuple[str, np.ndarray, FieldCodecConfig | None]],
    step: int,
    context: CodecContext | None = None,
) -> list[tuple[int, dict, bytes]]:
    """Encode a frame's ``(name, array, config)`` fields in one batch.

    Returns one ``(codec_id, params, wire_bytes)`` per field, in order.
    Lossy fields sharing a (config, dtype, shape) run through their
    pipeline together (:func:`_encode_group`); the blocks are byte for
    byte what encoding the fields one at a time gives.  A field falls
    back to the raw (lossless) block whenever its pipeline cannot honor
    the bound or would not shrink it, so a decoded payload is never
    worse than its budget *and* never larger than ~its raw size.
    """
    with get_telemetry().tracer.span("codec.encode", step=step):
        return _encode_fields(fields, step, context)


def _encode_fields(fields, step, context) -> list[tuple[int, dict, bytes]]:
    if len({name for name, _, _ in fields}) < len(fields):
        # a repeated name chains on its own quanta within the frame
        return [_encode_fields([f], step, context)[0] for f in fields]
    arrs = [np.ascontiguousarray(arr) for _, arr, _ in fields]
    out: list = [None] * len(fields)
    groups: dict[tuple, list[int]] = {}
    for i, (_, _, cfg) in enumerate(fields):
        if not (cfg is None or cfg.codec == "raw" or cfg.budget.lossless
                or arrs[i].size == 0):
            groups.setdefault((cfg, arrs[i].dtype, arrs[i].shape), []).append(i)
    for (cfg, _, _), members in groups.items():
        encoded = _encode_group([fields[i][0] for i in members],
                                [arrs[i] for i in members], cfg, step, context)
        for i, block in zip(members, encoded):
            out[i] = block
    for i, arr in enumerate(arrs):
        if out[i] is None:
            out[i] = (RAW, {}, arr.tobytes())
    if context is not None:
        for (name, _, _), arr, (codec_id, _, data) in zip(fields, arrs, out):
            context.stats.record(name, arr.nbytes, len(data), codec_id)
    return out


def encode_field(
    name: str,
    arr: np.ndarray,
    cfg: FieldCodecConfig | None,
    step: int,
) -> tuple[int, dict, bytes]:
    """Encode one field without temporal context: the one-row case of
    :func:`encode_fields`."""
    return encode_fields([(name, arr, cfg)], step)[0]


def _decode_group(rows, dtype, shape, context):
    """Decode same-(dtype, shape) ``delta-rle`` blocks together.

    `rows` holds ``(name, params, data)``.  Returns the decoded
    ``(F, n)`` matrix and the ``(name, qstep, quanta)`` references to
    remember once the whole batch is known to be good.
    """
    fast = config.enabled()
    count = math.prod(shape)
    deltas = rle_decode_rows([data for _, _, data in rows], count) \
        if fast else None
    if deltas is None:
        # naive mode, or a malformed block: one row at a time, so that
        # the first bad row raises what it has always raised
        deltas = []
        for _, _, data in rows:
            deltas.append(rle_decode(data))
            if deltas[-1].size != count:
                raise CodecError("delta block has the wrong length")
        deltas = np.stack(deltas)
    qsteps = [float(params["q"]) for _, params, _ in rows]
    temporal, prev = [], []
    for j, (name, params, _) in enumerate(rows):
        if params.get("m") != "t":
            continue
        if context is None:
            raise MissingReferenceError(
                f"temporal delta for {name!r} needs a decode context"
            )
        ref = context.reference(name)
        if ref is None or ref[0] != params.get("ref") or ref[1] != qsteps[j] \
                or ref[2].size != count:
            raise MissingReferenceError(
                f"temporal delta for {name!r} references step "
                f"{params.get('ref')} which this context has not decoded"
            )
        temporal.append(j)
        prev.append(ref[2].ravel())
    q = delta_decode(deltas, axis=1) if fast \
        else np.stack([delta_decode(row) for row in deltas])
    if temporal:
        q[temporal] = deltas[temporal] + np.stack(prev)
    if fast:
        values = dequantize(q, np.array(qsteps)[:, None], dtype)
    else:
        values = np.stack([dequantize(row, qstep, dtype)
                           for row, qstep in zip(q, qsteps)])
    remembered = [(row[0], qstep, quanta.reshape(shape))
                  for row, qstep, quanta in zip(rows, qsteps, q)]
    return values, remembered


def _decode_blocks(blocks, context):
    """Decode a batch without touching `context`; see :func:`decode_fields`."""
    arrs: list = [None] * len(blocks)
    groups: dict[tuple, list[int]] = {}
    for i, (_, codec_id, params, data, dtype, shape) in enumerate(blocks):
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        if codec_id == RAW:
            arr = np.frombuffer(data, dtype=dtype)
            if arr.size != count:
                raise CodecError("raw block has the wrong length")
            arrs[i] = arr.reshape(shape)
        elif codec_id == CONSTANT:
            arrs[i] = np.full(shape, params["v"], dtype=dtype)
        elif codec_id == DELTA_RLE:
            groups.setdefault((dtype, tuple(shape)), []).append(i)
        else:
            raise CodecError(f"unknown codec id {codec_id}")
    remembered = []
    for (dtype, shape), members in groups.items():
        values, refs = _decode_group(
            [(blocks[i][0], blocks[i][2], blocks[i][3]) for i in members],
            dtype, shape, context,
        )
        remembered += refs
        for i, row in zip(members, values):
            arrs[i] = row.reshape(shape)
    return arrs, remembered


def decode_fields(
    blocks: list[tuple[str, int, dict, bytes, np.dtype, tuple[int, ...]]],
    step: int,
    context: CodecContext | None = None,
) -> list[np.ndarray]:
    """Invert :func:`encode_fields` for a frame's wire blocks.

    `blocks` holds ``(name, codec_id, params, data, dtype, shape)``.
    Raw blocks come back as zero-copy views of `data` when possible;
    ``delta-rle`` blocks of one (dtype, shape) are decoded together and
    come back as rows of one fresh matrix.  Temporal deltas need
    `context` to hold the reference step's quanta and raise
    :class:`MissingReferenceError` otherwise.  All stage decoders
    dispatch to their pure-Python references under ``naive_mode``.

    A batch that holds a bad block (or a repeated name, which chains on
    itself) is decoded again block by block, in order: the first bad
    block raises — after the ones before it were remembered — exactly
    what a field-at-a-time decoder raises.
    """
    with get_telemetry().tracer.span("codec.decode", step=step):
        return _decode_fields(blocks, step, context)


def _decode_fields(blocks, step, context) -> list[np.ndarray]:
    decoded = None
    if len({block[0] for block in blocks}) == len(blocks):
        try:
            decoded = _decode_blocks(blocks, context)
        except (ValueError, KeyError, TypeError):
            if len(blocks) == 1:
                raise
    if decoded is None:
        return [_decode_fields([block], step, context)[0] for block in blocks]
    arrs, remembered = decoded
    if context is not None:
        for name, qstep, quanta in remembered:
            context.remember(name, step, qstep, quanta)
    return arrs


def decode_field(
    name: str,
    codec_id: int,
    params: dict,
    data: bytes,
    dtype,
    shape: tuple[int, ...],
    step: int,
) -> np.ndarray:
    """Decode one wire block without temporal context: the one-row case
    of :func:`decode_fields`."""
    return decode_fields([(name, codec_id, params, data, dtype, shape)], step)[0]
