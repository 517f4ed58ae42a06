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
silently feeding garbage arrays to the analysis side.  Every frame
carries a CRC: the unchecked version 1 (``RBP1``) is rejected like
any other unknown magic.

Version 3 payloads (``RBP3``) carry codec-compressed field blocks:
:func:`marshal_step` takes an optional :class:`~repro.codec.CodecSpec`
and, when it is active, hands the step's variables to the codec in one
batch (`repro.codec.encode_fields`), writing each one's codec id and
parameters into its field header.  The CRC32 covers the *compressed*
body — exactly the bytes on the wire — so the broker, the fleet's
replay cache, and BP files all verify what they actually stored.  An
inactive/lossless spec (or ``codec=None``) emits the plain ``RBP2``
frame, byte identical to an uncompressed run, and
:func:`unmarshal_step` auto-detects both versions.

There is one writer and one reader.  :func:`marshal_step` lays out
every frame itself: it sizes the payload first and writes header,
field headers and data into one preallocated ``bytearray`` through
``memoryview`` slices (no BytesIO growth, no ``tobytes`` staging copy,
no join-then-copy), whichever version it emits.  :func:`unmarshal_step`
returns plain read-only arrays — views of the payload buffer where the
bytes on the wire are the array — and a consumer that needs to mutate
one copies it.  Neither depends on ``repro.perf.naive_mode``; the byte
layout is pinned by golden digests in ``tests/test_perf.py`` (RBP2) and
``tests/test_codec.py`` (RBP3).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.codec import decode_fields, encode_fields
from repro.faults.errors import CorruptPayloadError
from repro.observe.session import get_telemetry

_MAGIC = b"RBP2"
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


def _normalize_array(arr: np.ndarray) -> tuple[np.ndarray, bytes]:
    """Contiguous little-endian array + its two-byte dtype tag."""
    arr = np.ascontiguousarray(arr)
    dtype = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
    arr = arr.astype(dtype, copy=False)
    tag = _DTYPE_TAGS.get(arr.dtype)
    if tag is None:
        raise TypeError(f"unsupported dtype for BP marshal: {arr.dtype}")
    return arr, tag


def _meter_codec(raw: int, wire: int) -> None:
    """Aggregate raw-vs-wire byte counters on this rank (the codec's
    seconds are its ``codec.encode`` / ``codec.decode`` spans)."""
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


def marshal_step(payload: StepPayload, codec=None, context=None) -> bytearray:
    """Encode a StepPayload to transportable bytes (CRC32-protected).

    With an *active* :class:`~repro.codec.CodecSpec` the ``RBP3`` frame
    is emitted (the variables go through the codec in one batch, each
    field header carries its codec id and parameters, the CRC covers
    the compressed body); otherwise — ``codec=None`` or an
    inactive/lossless spec — the plain ``RBP2`` frame.  Both are laid
    out here, in a ``bytearray`` allocated once at its exact size.
    """
    v3 = codec is not None and codec.active
    attrs = json.dumps(payload.attributes).encode()
    fields = [(name, *_normalize_array(arr))
              for name, arr in payload.variables.items()]
    if v3:
        encoded = encode_fields(
            [(name, arr, codec.config_for(name, arr.dtype))
             for name, arr, _ in fields],
            payload.step, context,
        )
    else:
        # an RBP2 block is the array's bytes and no codec header (a flat
        # view: memoryview.cast refuses an array with a zero in its shape)
        encoded = [(None, None, arr.reshape(-1).view(np.uint8))
                   for _, arr, _ in fields]
    blocks = []
    for (name, arr, tag), (codec_id, params, data) in zip(fields, encoded):
        name_b = name.encode()
        head = struct.pack(f"<H{len(name_b)}s2sB{arr.ndim}q", len(name_b),
                           name_b, tag, arr.ndim, *arr.shape)
        if v3:
            params_b = json.dumps(params).encode() if params else b"{}"
            head += struct.pack(f"<BH{len(params_b)}s", codec_id,
                                len(params_b), params_b)
        blocks.append((head + struct.pack("<q", len(data)), data))

    off = 8 + _HEADER_SIZE + len(attrs) + 4
    out = bytearray(off + sum(len(head) + len(data) for head, data in blocks))
    mv = memoryview(out)
    mv[0:4] = _MAGIC_V3 if v3 else _MAGIC
    struct.pack_into(f"{_HEADER}{len(attrs)}sI", out, 8, payload.step,
                     payload.time, payload.rank, len(attrs), attrs, len(blocks))
    for block in blocks:
        for part in block:
            mv[off:off + len(part)] = part
            off += len(part)
    struct.pack_into("<I", out, 4, zlib.crc32(mv[8:]) & 0xFFFFFFFF)
    if v3:
        _meter_codec(sum(arr.nbytes for _, arr, _ in fields), len(out))
    return out


def unmarshal_step(data, context=None) -> StepPayload:
    """Decode bytes produced by :func:`marshal_step`.

    Raises :class:`CorruptPayloadError` when the magic is unknown, the
    body fails its CRC32 check or the bytes are not one whole frame — a
    short read is a corrupt step, never a ``struct.error``.  Variables
    are read-only — views into `data` for v2 and raw v3 blocks, freshly
    decoded (then frozen) arrays for compressed v3 blocks — so no
    consumer can write through to the wire bytes.  `context` is the per-stream
    :class:`~repro.codec.CodecContext` temporal-delta decodes need.
    """
    payload, blocks = _read_frame(data)
    if blocks is not None:
        arrays = decode_fields(blocks, payload.step, context)
        for block, arr in zip(blocks, arrays):
            arr.flags.writeable = False
            payload.variables[block[0]] = arr
        _meter_codec(payload.nbytes, len(memoryview(data)))
    return payload


def _read_frame(data) -> tuple[StepPayload, list[tuple] | None]:
    """The frame parser: magic, CRC, step header, variable headers.

    RBP2 variables come back as read-only views on the payload
    (and no block list); RBP3 ones as ``(name, codec_id, params, data,
    dtype, shape)`` blocks for :func:`repro.codec.decode_fields`, the
    payload's variables still to be filled.  Parsing is total:
    bytes that are not one whole well-formed frame — any prefix of one,
    say, after a short read — raise :class:`CorruptPayloadError`.
    """
    view = memoryview(data)
    magic = bytes(view[:4])
    if magic not in (_MAGIC, _MAGIC_V3):
        raise CorruptPayloadError("not a BP step payload (bad magic)")
    v3 = magic == _MAGIC_V3
    try:
        (stored,) = struct.unpack_from("<I", view, 4)
        if zlib.crc32(view[8:]) & 0xFFFFFFFF != stored:
            raise CorruptPayloadError(
                "BP payload CRC32 mismatch (corrupt or trailing bytes)"
            )
        step, time, rank, attr_len = struct.unpack_from(_HEADER, view, 8)
        off = 8 + _HEADER_SIZE
        attributes = json.loads(bytes(view[off : off + attr_len]).decode())
        off += attr_len
        (nvars,) = struct.unpack_from("<I", view, off)
        off += 4
        payload = StepPayload(step=step, time=time, rank=rank,
                              attributes=attributes)
        blocks = [] if v3 else None
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
