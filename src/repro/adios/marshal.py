"""BP-style binary marshaling of step data.

One *step payload* carries: step index, simulation time, producing
rank, and a set of named typed nd-arrays plus a small string-keyed
attribute table.  The encoding is explicit and little-endian (magic,
lengths, dtype tags) rather than pickle — matching how ADIOS BP
serializes for transport, keeping payload sizes honest, and avoiding
executing anything on the receive side.

Version 2 payloads (``RBP2``) prepend a CRC32 of the body so
in-flight corruption is *detected* on unmarshal — raised as
:class:`~repro.faults.errors.CorruptPayloadError` — instead of
silently feeding garbage arrays to the analysis side.  Version 1
(``RBP1``, no checksum) payloads are still readable, so BP files
written by older runs replay unchanged.

Version 3 payloads (``RBP3``) carry codec-compressed field blocks:
:func:`marshal_step` takes an optional :class:`~repro.codec.CodecSpec`
and, when it is active, hands the step's variables to the codec in one
batch (`repro.codec.encode_fields`), writing each one's codec id and
parameters into its field header.  The CRC32 covers the *compressed*
body — exactly the bytes on the wire — so the broker, the fleet's
replay cache, and BP files all verify what they actually stored.  An inactive/lossless
spec (or ``codec=None``) emits the plain ``RBP2`` frame, byte
identical to an uncompressed run, and :func:`unmarshal_step`
auto-detects all three versions.

The default paths are zero-copy: :func:`marshal_step` sizes the
payload first and writes every field into one preallocated
``bytearray`` through ``memoryview`` slices (no BytesIO growth, no
``tobytes`` staging copy), and :func:`unmarshal_step` returns arrays
that *view* the payload buffer, marked read-only.  A consumer that
needs to mutate calls :meth:`StepPayload.ensure_writable` — copy on
first write, not per payload.  The byte layout is identical to the
retained ``*_reference`` implementations (``repro.perf.naive_mode``),
which the equivalence tests assert byte-for-byte.
"""

from __future__ import annotations

import io
import json
import struct
import time as _time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.faults.errors import CorruptPayloadError
from repro.observe.session import get_telemetry
from repro.perf import config

_MAGIC = b"RBP2"
_MAGIC_V1 = b"RBP1"
_MAGIC_V3 = b"RBP3"
_HEADER = "<qdqI"
_HEADER_SIZE = struct.calcsize(_HEADER)

_DTYPE_TAGS = {
    np.dtype("<f8"): b"f8",
    np.dtype("<f4"): b"f4",
    np.dtype("<i8"): b"i8",
    np.dtype("<i4"): b"i4",
    np.dtype("uint8"): b"u1",
}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


@dataclass
class StepPayload:
    """Decoded step data."""

    step: int
    time: float
    rank: int
    variables: dict[str, np.ndarray] = field(default_factory=dict)
    attributes: dict[str, str] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.variables.values())

    def ensure_writable(self, name: str) -> np.ndarray:
        """Copy-on-write access to a variable.

        Arrays from :func:`unmarshal_step` are read-only views into the
        transport buffer; this replaces one with a private writable
        copy the first time a consumer needs to mutate it.
        """
        arr = self.variables[name]
        if not arr.flags.writeable:
            arr = arr.copy()
            self.variables[name] = arr
        return arr


def _normalize_array(arr: np.ndarray) -> tuple[np.ndarray, bytes]:
    """Contiguous little-endian array + its two-byte dtype tag."""
    arr = np.ascontiguousarray(arr)
    dtype = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
    arr = arr.astype(dtype, copy=False)
    tag = _DTYPE_TAGS.get(arr.dtype)
    if tag is None:
        raise TypeError(f"unsupported dtype for BP marshal: {arr.dtype}")
    return arr, tag


# -- reference (copying) codec ------------------------------------------

def _write_block(buf: io.BytesIO, name: str, arr: np.ndarray) -> None:
    arr, tag = _normalize_array(arr)
    name_b = name.encode()
    buf.write(struct.pack("<H", len(name_b)))
    buf.write(name_b)
    buf.write(tag)
    buf.write(struct.pack("<B", arr.ndim))
    buf.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
    raw = arr.tobytes()
    buf.write(struct.pack("<q", len(raw)))
    buf.write(raw)


def marshal_step_reference(payload: StepPayload) -> bytes:
    """Original BytesIO encoder, kept for the gate/equivalence tests."""
    buf = io.BytesIO()
    attrs = json.dumps(payload.attributes).encode()
    buf.write(struct.pack(_HEADER, payload.step, payload.time, payload.rank, len(attrs)))
    buf.write(attrs)
    buf.write(struct.pack("<I", len(payload.variables)))
    for name, arr in payload.variables.items():
        _write_block(buf, name, np.asarray(arr))
    body = buf.getvalue()
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _MAGIC + struct.pack("<I", crc) + body


def unmarshal_step_reference(data) -> StepPayload:
    """Original copying decoder, kept for the gate/equivalence tests."""
    payload, _ = _read_frame(data, v3=False)
    for name, arr in payload.variables.items():
        payload.variables[name] = arr.copy()
    return payload


# -- zero-copy codec ----------------------------------------------------

def marshal_step(payload: StepPayload, codec=None, context=None):
    """Encode a StepPayload to transportable bytes (CRC32-protected).

    Returns a ``bytearray`` whose layout is byte-identical to
    :func:`marshal_step_reference`, built with a single allocation.
    With an *active* :class:`~repro.codec.CodecSpec` the ``RBP3``
    frame is emitted instead (per-field compressed blocks, CRC over
    the compressed body); an inactive/lossless spec falls through to
    the byte-identical ``RBP2`` path.
    """
    if codec is not None and codec.active:
        return _marshal_step_v3(payload, codec, context)
    if not config.enabled():
        return marshal_step_reference(payload)
    attrs = json.dumps(payload.attributes).encode()
    blocks: list[tuple[bytes, np.ndarray, bytes]] = []
    size = 8 + _HEADER_SIZE + len(attrs) + 4
    for name, arr in payload.variables.items():
        arr, tag = _normalize_array(np.asarray(arr))
        name_b = name.encode()
        blocks.append((name_b, arr, tag))
        size += 2 + len(name_b) + 2 + 1 + 8 * arr.ndim + 8 + arr.nbytes

    out = bytearray(size)
    mv = memoryview(out)
    mv[0:4] = _MAGIC
    off = 8
    struct.pack_into(_HEADER, out, off, payload.step, payload.time,
                     payload.rank, len(attrs))
    off += _HEADER_SIZE
    mv[off:off + len(attrs)] = attrs
    off += len(attrs)
    struct.pack_into("<I", out, off, len(blocks))
    off += 4
    for name_b, arr, tag in blocks:
        struct.pack_into("<H", out, off, len(name_b))
        off += 2
        mv[off:off + len(name_b)] = name_b
        off += len(name_b)
        mv[off:off + 2] = tag
        off += 2
        struct.pack_into("<B", out, off, arr.ndim)
        off += 1
        struct.pack_into(f"<{arr.ndim}q", out, off, *arr.shape)
        off += 8 * arr.ndim
        struct.pack_into("<q", out, off, arr.nbytes)
        off += 8
        mv[off:off + arr.nbytes] = memoryview(arr).cast("B")
        off += arr.nbytes
    struct.pack_into("<I", out, 4, zlib.crc32(mv[8:]) & 0xFFFFFFFF)
    return out


def unmarshal_step(data, context=None) -> StepPayload:
    """Decode bytes produced by :func:`marshal_step`.

    Raises :class:`CorruptPayloadError` when the magic is unknown, the
    body fails its CRC32 check (v2/v3 payloads; v1 payloads carry no
    checksum) or the bytes are not one whole frame — a short read is a
    corrupt step, never a ``struct.error``.  Variables are read-only —
    views into `data` for v1/v2 and raw v3 blocks, freshly decoded
    (then frozen) arrays for compressed v3 blocks — so
    :meth:`StepPayload.ensure_writable` is the single mutation path
    for every version.  `context` is the per-stream
    :class:`~repro.codec.CodecContext` temporal-delta decodes need.
    """
    if bytes(memoryview(data)[:4]) == _MAGIC_V3:
        return _unmarshal_step_v3(data, context)
    if not config.enabled():
        return unmarshal_step_reference(data)
    return _read_frame(data, v3=False)[0]


def _read_frame(data, v3: bool) -> tuple[StepPayload, list[tuple]]:
    """Shared frame parser: magic, CRC, step header, variable headers.

    RBP1/RBP2 variables come back as read-only views on the payload;
    RBP3 (`v3`) ones as ``(name, codec_id, params, data, dtype, shape)``
    blocks for :func:`repro.codec.decode_fields`.  Parsing is total:
    bytes that are not one whole well-formed frame — any prefix of one,
    say, after a short read — raise :class:`CorruptPayloadError`.
    """
    view = memoryview(data)
    magic = bytes(view[:4])
    if magic not in ((_MAGIC_V3,) if v3 else (_MAGIC, _MAGIC_V1)):
        raise CorruptPayloadError("not a BP step payload (bad magic)")
    try:
        off = 4
        if magic != _MAGIC_V1:
            (stored,) = struct.unpack_from("<I", view, 4)
            if zlib.crc32(view[8:]) & 0xFFFFFFFF != stored:
                raise CorruptPayloadError(
                    "BP payload CRC32 mismatch (corrupt or trailing bytes)"
                )
            off = 8
        step, time, rank, attr_len = struct.unpack_from(_HEADER, view, off)
        off += _HEADER_SIZE
        attributes = json.loads(bytes(view[off : off + attr_len]).decode())
        off += attr_len
        (nvars,) = struct.unpack_from("<I", view, off)
        off += 4
        payload = StepPayload(step=step, time=time, rank=rank,
                              attributes=attributes)
        blocks = []
        for _ in range(nvars):
            (name_len,) = struct.unpack_from("<H", view, off)
            off += 2
            name = bytes(view[off : off + name_len]).decode()
            off += name_len
            tag = bytes(view[off : off + 2])
            dtype = _TAG_DTYPES.get(tag)
            if dtype is None:
                raise ValueError(f"unknown dtype tag {tag!r} in payload")
            (ndim,) = struct.unpack_from("<B", view, off + 2)
            off += 3
            shape = struct.unpack_from(f"<{ndim}q", view, off)
            off += 8 * ndim
            if v3:
                codec_id, params_len = struct.unpack_from("<BH", view, off)
                off += 3
                params = json.loads(bytes(view[off : off + params_len]).decode())
                off += params_len
            (size,) = struct.unpack_from("<q", view, off)
            off += 8
            if not 0 <= size <= len(view) - off:
                raise ValueError("variable block runs past the payload")
            if v3:
                blocks.append((name, codec_id, params, view[off : off + size],
                               dtype, shape))
            else:
                arr = np.frombuffer(view[off : off + size], dtype=dtype)
                arr = arr.reshape(shape)
                arr.flags.writeable = False
                payload.variables[name] = arr
            off += size
        if off != len(view):
            raise ValueError("trailing bytes in BP payload")
    except CorruptPayloadError:
        raise
    except (struct.error, ValueError) as exc:
        raise CorruptPayloadError(f"malformed BP payload: {exc}") from exc
    return payload, blocks


# -- RBP3: codec-compressed frames --------------------------------------

def _meter_codec(kind: str, raw: int, wire: int, seconds: float) -> None:
    """Aggregate raw-vs-wire and codec-time counters on this rank."""
    tel = get_telemetry()
    if not tel.enabled:
        return
    m = tel.metrics
    m.counter(
        "repro_codec_raw_bytes_total", "Uncompressed payload bytes through the codec"
    ).inc(raw)
    m.counter(
        "repro_codec_wire_bytes_total", "Codec-compressed bytes on the wire"
    ).inc(wire)
    m.counter(
        f"repro_codec_{kind}_seconds_total", f"Seconds spent in codec {kind}"
    ).inc(seconds)


def _marshal_step_v3(payload: StepPayload, codec, context) -> bytearray:
    """Encode the RBP3 frame: per-field codec blocks, CRC over them."""
    from repro.codec import encode_fields

    t0 = _time.perf_counter()
    attrs = json.dumps(payload.attributes).encode()
    fields, tags = [], []
    for name, arr in payload.variables.items():
        arr, tag = _normalize_array(np.asarray(arr))
        fields.append((name, arr, codec.config_for(name, arr.dtype)))
        tags.append(tag)
    parts = [
        struct.pack(_HEADER, payload.step, payload.time, payload.rank,
                    len(attrs)),
        attrs, struct.pack("<I", len(fields)),
    ]
    encoded = encode_fields(fields, payload.step, context)
    for (name, arr, _), tag, (codec_id, params, data) in zip(fields, tags,
                                                             encoded):
        name_b = name.encode()
        params_b = json.dumps(params).encode() if params else b"{}"
        parts += (
            struct.pack("<H", len(name_b)), name_b, tag,
            struct.pack(f"<B{arr.ndim}qBH", arr.ndim, *arr.shape, codec_id,
                        len(params_b)),
            params_b, struct.pack("<q", len(data)), data,
        )
    body = b"".join(parts)
    out = bytearray(8 + len(body))
    out[0:4] = _MAGIC_V3
    struct.pack_into("<I", out, 4, zlib.crc32(body) & 0xFFFFFFFF)
    out[8:] = body
    _meter_codec("encode", sum(arr.nbytes for _, arr, _ in fields), len(out),
                 _time.perf_counter() - t0)
    return out


def _unmarshal_step_v3(data, context) -> StepPayload:
    """Decode an RBP3 frame (CRC over the compressed body)."""
    from repro.codec import decode_fields

    t0 = _time.perf_counter()
    payload, blocks = _read_frame(data, v3=True)
    arrays = decode_fields(blocks, payload.step, context)
    for block, arr in zip(blocks, arrays):
        arr.flags.writeable = False
        payload.variables[block[0]] = arr
    _meter_codec("decode", payload.nbytes, len(memoryview(data)),
                 _time.perf_counter() - t0)
    return payload
