"""Codec stages: the NumPy-only primitives field pipelines compose.

Every stage is a pure function over arrays/bytes with an exact inverse
(delta, varint, RLE) or a bounded-error inverse (quantization).  The *decoders* carry two
implementations, the gate's idiom: a vectorized NumPy path and a
retained pure-Python ``*_reference`` path dispatched through
``repro.perf.config`` — under :func:`repro.perf.naive_mode` every
decode below runs the reference code, and the equivalence tests assert
the outputs match bit for bit.

Wire conventions (all little-endian):

- *varint*: LEB128 — 7 value bits per byte, high bit = continuation.
- *zigzag*: signed->unsigned fold (0,-1,1,-2,... -> 0,1,2,3,...), so
  small-magnitude deltas stay short varints.
- *RLE*: zero-gap coding — ``varint(n) varint(k) varint(gaps[k])
  varint(zigzag(values[k]))`` where `gaps` counts the zeros before
  each nonzero.  Quantized-delta fields are mostly zero, which is the
  entire entropy win.
"""

from __future__ import annotations

import numpy as np

from repro.perf import config

__all__ = [
    "CodecError",
    "MissingReferenceError",
    "varint_decode",
    "zigzag_encode",
    "zigzag_decode",
    "rle_encode_rows",
    "rle_decode",
    "rle_decode_rows",
    "delta_encode",
    "delta_decode",
    "quantize_rows",
    "dequantize",
]

_U64 = np.uint64
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)


class CodecError(ValueError):
    """A codec stage cannot encode/decode the given data."""


class MissingReferenceError(CodecError):
    """A temporal-delta payload arrived without its reference step."""


# -- zigzag --------------------------------------------------------------

def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Fold int64 into uint64 so small magnitudes become small values."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(_U64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    u = np.asarray(values, dtype=_U64)
    return ((u >> _U64(1)) ^ (-(u & _U64(1)).astype(np.int64)).astype(_U64)).astype(
        np.int64
    )


# -- varint --------------------------------------------------------------

def _varint_pack(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 bytes of a uint64 array, plus the end offset of each value."""
    u = np.ascontiguousarray(values, dtype=_U64).ravel()
    if u.size == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    nbytes = np.ones(u.size, dtype=np.int64)
    for k in range(1, _MAX_VARINT_BYTES):
        longer = u >= _U64(1 << (7 * k))
        if not longer.any():
            break
        nbytes += longer
    ends = np.cumsum(nbytes)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    # one round per byte position, over the values that still have bytes
    # left: quantized deltas are mostly < 128, so round 0 is usually all
    idx, rem, left = ends - nbytes, u, nbytes
    while True:
        more = left > 1
        out[idx] = (rem & _U64(0x7F)).astype(np.uint8) | (more.view(np.uint8) << 7)
        if not more.any():
            return out, ends
        idx, rem, left = idx[more] + 1, rem[more] >> _U64(7), left[more] - 1


def _varint_scan(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Every complete varint in a uint8 array.

    Returns ``(values, ends, longest)``: the uint64 values (bits past 64
    dropped), the index of each one's last byte, and the longest
    encoding seen — callers reject ``longest > 10`` and decide what a
    trailing run of continuation bytes means.
    """
    ends = np.flatnonzero(b < 0x80)
    if ends.size == 0:
        return np.zeros(0, dtype=_U64), ends, 0
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    vals = (b[starts] & 0x7F).astype(_U64)
    idx, k = np.flatnonzero(lens > 1), 1
    while idx.size and k < _MAX_VARINT_BYTES:
        vals[idx] |= (b[starts[idx] + k] & 0x7F).astype(_U64) << _U64(7 * k)
        k += 1
        idx = idx[lens[idx] > k]
    return vals, ends, int(lens.max())


def varint_decode(data: bytes, count: int) -> np.ndarray:
    """Decode exactly `count` LEB128 values; returns uint64."""
    if not config.enabled():
        return varint_decode_reference(data, count)
    b = np.frombuffer(data, dtype=np.uint8)
    if count == 0:
        if b.size:
            raise CodecError("trailing bytes after varint stream")
        return np.zeros(0, dtype=_U64)
    if b.size == 0 or b[-1] >= 0x80:
        raise CodecError("varint stream truncated")
    vals, ends, longest = _varint_scan(b)
    if ends.size != count:
        raise CodecError(
            f"varint stream holds {ends.size} values, expected {count}"
        )
    if longest > _MAX_VARINT_BYTES:
        raise CodecError("varint value exceeds 64 bits")
    return vals


def varint_decode_reference(data: bytes, count: int) -> np.ndarray:
    """Reference decoder: the textbook byte-at-a-time LEB128 loop."""
    vals = []
    acc = 0
    shift = 0
    for byte in data:
        acc |= (byte & 0x7F) << shift
        shift += 7
        if shift > 7 * _MAX_VARINT_BYTES:
            raise CodecError("varint value exceeds 64 bits")
        if not byte & 0x80:
            vals.append(acc & 0xFFFFFFFFFFFFFFFF)
            acc = 0
            shift = 0
    if shift:
        raise CodecError("varint stream truncated")
    if len(vals) != count:
        raise CodecError(
            f"varint stream holds {len(vals)} values, expected {count}"
        )
    return np.array(vals, dtype=_U64)


# -- zero-run RLE --------------------------------------------------------

def rle_encode_rows(deltas: np.ndarray) -> list[bytes]:
    """Zero-gap-code every row of an ``(F, n)`` int64 matrix at once.

    One nonzero scan and one varint pass over the rows' concatenated
    ``[n, k, gaps..., values...]`` streams; each row's bytes are cut out
    at the prefix-sum offsets, identical to coding it on its own.
    """
    d = np.ascontiguousarray(deltas, dtype=np.int64)
    nrows, n = d.shape
    flat = d.ravel()
    nz = np.flatnonzero(flat != 0)
    row0 = np.arange(nrows) * n                 # flat index where row r starts
    first = np.searchsorted(nz, row0)           # row r's first nonzero, in nz
    k = np.diff(first, append=nz.size)
    gaps = np.diff(nz, prepend=-1) - 1
    gaps[first[k > 0]] = nz[first[k > 0]] - row0[k > 0]
    head = 2 * np.arange(nrows) + 2 * first     # where row r's stream starts
    stream = np.empty(2 * nrows + 2 * nz.size, dtype=_U64)
    stream[head] = n
    stream[head + 1] = k
    at = np.repeat(head + 2 - first, k) + np.arange(nz.size)
    stream[at] = gaps
    stream[at + np.repeat(k, k)] = zigzag_encode(flat[nz])
    blob, ends = _varint_pack(stream)
    cuts = [0, *ends[head[1:] - 1].tolist(), blob.size]
    blob = blob.tobytes()
    return [blob[a:b] for a, b in zip(cuts, cuts[1:])]


def _rle_split(data: bytes) -> tuple[int, int, bytes]:
    """Parse the two-varint RLE header; returns (n, k, rest)."""
    off = 0
    out = []
    for _ in range(2):
        acc = 0
        shift = 0
        while True:
            if off >= len(data):
                raise CodecError("RLE header truncated")
            byte = data[off]
            off += 1
            acc |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                break
        out.append(acc)
    return out[0], out[1], data[off:]


def rle_decode_rows(blocks: list, n: int) -> np.ndarray | None:
    """Invert :func:`rle_encode_rows` for rows that all hold `n` values.

    Returns the ``(F, n)`` int64 matrix, or None when any block is not
    a well-formed stream of exactly `n` values — :func:`rle_decode`
    says what is wrong with one.  Positions are prefix sums *within* a
    row, so no block can write into another's row.
    """
    sizes = [len(block) for block in blocks]
    if min(sizes) < 2:
        return None
    b = np.frombuffer(b"".join(blocks), dtype=np.uint8)
    bounds = np.cumsum([0, *sizes])
    if (b[bounds[1:] - 1] >= 0x80).any():
        return None
    vals, ends, longest = _varint_scan(b)
    head = np.searchsorted(ends, bounds[:-1])   # each row's first varint
    held = np.diff(head, append=ends.size)
    if longest > _MAX_VARINT_BYTES or int(held.min()) < 2:
        return None
    k = vals[head + 1]
    if (vals[head] != n).any() or (k > n).any():
        return None
    k = k.astype(np.int64)
    if (held != 2 * k + 2).any():
        return None
    out = np.zeros((k.size, n), dtype=np.int64)
    total = int(k.sum())
    if total:
        rows = np.repeat(np.arange(k.size), k)
        begin = np.repeat(np.cumsum(k) - k, k)  # each row's first nonzero
        at = np.repeat(head + 2, k) + np.arange(total) - begin
        gaps = vals[at]
        # each (still-uint64) gap must fit inside the array; this also
        # rejects values >= 2**63 that the int64 cast below would fold
        # negative (and turn out[pos] into wrap-around writes)
        if int(gaps.max()) >= n:
            return None
        run = np.cumsum(gaps.astype(np.int64) + 1)
        pos = run - (run[begin] - gaps[begin].astype(np.int64))
        if int(pos.max()) >= n:
            return None
        out[rows, pos] = zigzag_decode(vals[at + np.repeat(k, k)])
    return out


def rle_decode(data: bytes) -> np.ndarray:
    """Invert one row of :func:`rle_encode_rows`; returns a flat int64 array."""
    if not config.enabled():
        return rle_decode_reference(data)
    n, k, rest = _rle_split(data)
    if k > n:
        raise CodecError("RLE nonzero count exceeds length")
    out = rle_decode_rows([data], n)
    if out is not None:
        return out[0]
    # say what is wrong: gaps and values are two varint blocks of k each
    ends = np.flatnonzero(np.frombuffer(rest, dtype=np.uint8) < 0x80)
    if ends.size < 2 * k:
        raise CodecError("RLE stream truncated")
    split = int(ends[k - 1]) + 1 if k else 0
    varint_decode(rest[:split], k)
    varint_decode(rest[split:], k)
    # what is left is a gap past the array — or a header varint padded
    # beyond ten bytes, which only the scalar decoder reads
    return rle_decode_reference(data)


def rle_decode_reference(data: bytes) -> np.ndarray:
    """Reference decoder: scalar gap walk."""
    n, k, rest = _rle_split(data)
    if k > n:
        raise CodecError("RLE nonzero count exceeds length")
    stream = varint_decode_reference(rest, 2 * k)
    gaps = stream[:k]
    vals = zigzag_decode(stream[k:])
    out = np.zeros(n, dtype=np.int64)
    pos = -1
    for i in range(k):
        pos += int(gaps[i]) + 1
        if pos >= n:
            raise CodecError("RLE gap runs past the array")
        out[pos] = vals[i]
    return out


# -- delta ---------------------------------------------------------------

def delta_encode(values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """First-order difference along the fastest (C-contiguous) axis.

    The input is flattened first; ``axis=1`` instead differences each
    row of an ``(F, n)`` matrix on its own.
    """
    v = np.ascontiguousarray(values, dtype=np.int64)
    if axis is None:
        v = v.reshape(1, -1)
    out = np.empty_like(v)
    out[:, :1] = v[:, :1]
    np.subtract(v[:, 1:], v[:, :-1], out=out[:, 1:])
    return out if axis == 1 else out[0]


def delta_decode(deltas: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Invert :func:`delta_encode` (prefix sum; ``axis=1`` for rows)."""
    if not config.enabled():
        return delta_decode_reference(deltas)
    return np.cumsum(np.asarray(deltas, dtype=np.int64), axis=axis,
                     dtype=np.int64)


def delta_decode_reference(deltas: np.ndarray) -> np.ndarray:
    """Reference decoder: scalar running sum."""
    d = np.asarray(deltas, dtype=np.int64)
    out = np.empty_like(d)
    acc = 0
    for i, v in enumerate(d.tolist()):
        acc = (acc + v) & 0xFFFFFFFFFFFFFFFF
        if acc >= 1 << 63:
            acc -= 1 << 64
        out[i] = acc
    return out


# -- quantization --------------------------------------------------------

_QMAX = float(1 << 62)


def quantize_rows(a: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quantum indices ``round(a[r] / steps[r])`` of a finite float64 matrix.

    Returns the indices still as float64 and, per row, whether they can
    be cast to int64: the step is finite and no index overflows.
    """
    with np.errstate(over="ignore"):
        q = np.rint(a / steps[:, None])
    return q, np.isfinite(steps) & (np.abs(q).max(axis=1, initial=0.0) < _QMAX)


def dequantize(q: np.ndarray, step: float, dtype=np.float64) -> np.ndarray:
    """Invert :func:`quantize_rows` up to step/2 absolute error."""
    if not config.enabled():
        return dequantize_reference(q, step, dtype)
    return (np.asarray(q, dtype=np.float64) * step).astype(dtype)


def dequantize_reference(q: np.ndarray, step: float, dtype=np.float64) -> np.ndarray:
    """Reference decoder: scalar multiply-accumulate loop."""
    flat = [float(v) * step for v in np.asarray(q).ravel().tolist()]
    return np.array(flat, dtype=dtype).reshape(np.asarray(q).shape)
