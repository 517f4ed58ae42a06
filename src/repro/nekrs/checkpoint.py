"""NekRS-style ``.fld`` binary checkpoints.

The paper's "Checkpointing" configuration writes the raw simulation
state to disk every *n* steps; that volume (19 GB per pb146 run) is the
storage-economy baseline.  This module implements a binary field-file
format in the spirit of Nek's .fld: a fixed ASCII header describing
shapes/fields/time, followed by little-endian float64 blocks per field,
one file per rank per dump (Nek's one-file-per-rank "multi-file" mode).

Checkpoints round-trip: :func:`read_checkpoint` restores exactly what
:func:`write_checkpoint` stored, and :meth:`NekRSSolver`-compatible
state dicts can restart a run.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAGIC = b"#nekfld2"


@dataclass
class CheckpointHeader:
    case: str
    step: int
    time: float
    rank: int
    size: int
    field_shape: tuple[int, int, int, int]
    field_names: tuple[str, ...]

    def encode(self) -> bytes:
        if " " in self.case:
            raise ValueError("case names must not contain spaces")
        shape = "x".join(str(s) for s in self.field_shape)
        names = ",".join(self.field_names)
        line = (
            f"case={self.case} step={self.step} time={self.time!r} "
            f"rank={self.rank} size={self.size} shape={shape} fields={names}\n"
        )
        return _MAGIC + b" " + line.encode()

    @classmethod
    def decode(cls, line: bytes) -> "CheckpointHeader":
        if not line.startswith(_MAGIC):
            raise ValueError("not a repro .fld checkpoint (bad magic)")
        text = line[len(_MAGIC) :].decode().strip()
        kv = {}
        for token in text.split():
            k, _, v = token.partition("=")
            kv[k] = v
        return cls(
            case=kv["case"],
            step=int(kv["step"]),
            time=float(kv["time"]),
            rank=int(kv["rank"]),
            size=int(kv["size"]),
            field_shape=tuple(int(s) for s in kv["shape"].split("x")),
            field_names=tuple(kv["fields"].split(",")),
        )


def checkpoint_filename(case: str, step: int, rank: int) -> str:
    """`<case>0.f<step:05d>.r<rank:04d>` in the Nek multi-file spirit."""
    return f"{case}0.f{step:05d}.r{rank:04d}"


def encode_checkpoint(
    case: str,
    step: int,
    time: float,
    rank: int,
    size: int,
    fields: dict[str, np.ndarray],
) -> bytes:
    """Serialize a set of same-shaped fields to .fld bytes."""
    if not fields:
        raise ValueError("checkpoint needs at least one field")
    names = tuple(fields.keys())
    shapes = {f.shape for f in fields.values()}
    if len(shapes) != 1:
        raise ValueError(f"fields must share a shape, got {shapes}")
    shape = next(iter(shapes))
    if len(shape) != 4:
        raise ValueError(f"expected (E, Nq, Nq, Nq) fields, got shape {shape}")
    header = CheckpointHeader(case, step, time, rank, size, shape, names)
    buf = io.BytesIO()
    buf.write(header.encode())
    for name in names:
        data = np.ascontiguousarray(fields[name], dtype="<f8")
        buf.write(data.tobytes())
    return buf.getvalue()


def write_checkpoint(
    directory,
    case: str,
    step: int,
    time: float,
    rank: int,
    size: int,
    fields: dict[str, np.ndarray],
) -> tuple[Path, int]:
    """Write one rank's dump; returns (path, bytes written)."""
    from repro.observe.session import get_telemetry

    tel = get_telemetry()
    with tel.tracer.span("checkpoint.write", step=step):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        payload = encode_checkpoint(case, step, time, rank, size, fields)
        path = directory / checkpoint_filename(case, step, rank)
        path.write_bytes(payload)
    if tel.enabled:
        tel.metrics.counter(
            "repro_checkpoint_dumps_total", "Checkpoint files written"
        ).inc()
        tel.metrics.counter(
            "repro_checkpoint_bytes_total", "Checkpoint bytes written"
        ).inc(len(payload))
        tel.memory.observe("checkpoint.buffer", len(payload))
    return path, len(payload)


def read_checkpoint(path) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    """Read a dump back into (header, {name: field})."""
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = CheckpointHeader.decode(raw[: newline + 1])
    count = int(np.prod(header.field_shape))
    fields = {}
    offset = newline + 1
    for name in header.field_names:
        block = raw[offset : offset + count * 8]
        if len(block) != count * 8:
            raise ValueError(f"truncated checkpoint: field {name!r}")
        fields[name] = np.frombuffer(block, dtype="<f8").reshape(header.field_shape).copy()
        offset += count * 8
    if offset != len(raw):
        raise ValueError("trailing bytes after last field (corrupt checkpoint)")
    return header, fields
