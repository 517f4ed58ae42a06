"""Frame storage for the in situ service: latest slots, history, dedup.

The hub publishes one :class:`Frame` per rendered output stream (the
"pipeline" name the Catalyst adaptor writes, e.g. ``catalyst_surface``).
A :class:`FrameStore` keeps, per stream,

- a *latest-frame slot* — what a newly connected client sees first and
  what ``GET /frame/<stream>`` serves,
- a bounded *history ring* — the replay window ``GET /replay/<stream>``
  packs into an APNG,
- *content-hash dedup* — a quiescent flow renders the same pixels step
  after step; identical PNG payloads are interned once and shared by
  every Frame that references them.  ``frames_deduped`` counts the
  puts whose payload was already interned: the hub's cache hits.

It is the hub's one copy of the retained frames: a late joiner's
backfill and the replay window read it directly.

The store charges its unique payload bytes to the
:class:`~repro.observe.memory.MemoryMeter` under ``serve.framestore``,
so ``python -m repro trace`` runs show the serving window next to the
solver and staging categories.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass

from repro.observe.session import get_telemetry

__all__ = ["Frame", "FrameStore"]


@dataclass(frozen=True)
class Frame:
    """One published frame: PNG bytes plus step/time/stream metadata."""

    stream: str        # output stream name, e.g. "catalyst_surface"
    step: int
    time: float
    data: bytes        # encoded PNG, byte-identical to the on-disk file
    digest: str        # content hash of `data`
    seq: int           # hub-wide publish sequence number
    published_at: float = 0.0   # perf_counter timestamp at publish
    encoding: str = "png"       # payload encoding ("png", "rbp3", ...)
    raw_nbytes: int = 0         # pre-codec bytes, when `data` is compressed

    @property
    def nbytes(self) -> int:
        return len(self.data)

    @property
    def bytes_saved(self) -> int:
        """Bytes the codec shaved off this payload (0 when uncompressed)."""
        return max(0, self.raw_nbytes - len(self.data))


def content_digest(data: bytes) -> str:
    """Stable content hash used for frame dedup."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass
class _Interned:
    data: bytes
    refs: int = 0


class FrameStore:
    """Thread-safe per-stream latest slot + bounded history ring."""

    def __init__(self, history: int = 32):
        if history < 1:
            raise ValueError("history must be >= 1")
        self.history = history
        self._latest: dict[str, Frame] = {}
        self._rings: dict[str, deque[Frame]] = {}
        self._interned: dict[str, _Interned] = {}
        self._lock = threading.Lock()
        self.frames_stored = 0
        self.frames_deduped = 0
        self.peak_payload_bytes = 0
        # raw-vs-stored accounting for codec-encoded (non-PNG) frames
        self.codec_raw_bytes = 0
        self.codec_wire_bytes = 0

    # -- writing -----------------------------------------------------------
    def put(
        self, stream: str, step: int, time: float, data: bytes,
        seq: int, published_at: float = 0.0,
        encoding: str = "png", raw_nbytes: int = 0,
    ) -> Frame:
        """Store one frame; returns the (possibly payload-shared) Frame."""
        digest = content_digest(data)
        with self._lock:
            slot = self._interned.get(digest)
            if slot is None:
                slot = self._interned[digest] = _Interned(bytes(data))
            else:
                self.frames_deduped += 1
            slot.refs += 1
            payload = slot.data
            frame = Frame(
                stream=stream, step=step, time=time, data=payload,
                digest=digest, seq=seq, published_at=published_at,
                encoding=encoding, raw_nbytes=raw_nbytes,
            )
            if raw_nbytes:
                self.codec_raw_bytes += raw_nbytes
                self.codec_wire_bytes += len(payload)
            ring = self._rings.get(stream)
            if ring is None:
                ring = self._rings[stream] = deque()
            ring.append(frame)
            if len(ring) > self.history:
                self._release(ring.popleft())
            self._latest[stream] = frame
            self.frames_stored += 1
            total = self._payload_bytes_locked()
            self.peak_payload_bytes = max(self.peak_payload_bytes, total)
        get_telemetry().memory.observe("serve.framestore", total)
        return frame

    def _release(self, frame: Frame) -> None:
        slot = self._interned[frame.digest]
        slot.refs -= 1
        if slot.refs <= 0:
            del self._interned[frame.digest]

    # -- reading -----------------------------------------------------------
    def latest(self, stream: str) -> Frame | None:
        with self._lock:
            return self._latest.get(stream)

    def frames(self, stream: str) -> list[Frame]:
        """The history ring for `stream`, oldest first."""
        with self._lock:
            return list(self._rings.get(stream, ()))

    def streams(self) -> list[str]:
        with self._lock:
            return sorted(self._rings)

    def _payload_bytes_locked(self) -> int:
        return sum(len(s.data) for s in self._interned.values())

    @property
    def payload_bytes(self) -> int:
        """Unique payload bytes currently held (dedup-aware)."""
        with self._lock:
            return self._payload_bytes_locked()

    def stats(self) -> dict:
        with self._lock:
            return {
                "streams": sorted(self._rings),
                "frames_stored": self.frames_stored,
                "frames_deduped": self.frames_deduped,
                "payload_bytes": self._payload_bytes_locked(),
                "peak_payload_bytes": self.peak_payload_bytes,
                "history": self.history,
                "ring_depth": {s: len(r) for s, r in self._rings.items()},
                "codec_raw_bytes": self.codec_raw_bytes,
                "codec_wire_bytes": self.codec_wire_bytes,
                "codec_bytes_saved": max(
                    0, self.codec_raw_bytes - self.codec_wire_bytes
                ),
            }
