"""Client sessions and the multiplexed pump that feeds them.

One thread per relay, not per client — an epoll-style multiplexer:

- :class:`MeshSession` — one connected client's view of the stream,
  transport-agnostic (loopback, HTTP stream handler and the
  ``serve_fanout`` benchmark all consume the same object).
  Backpressure is *drop-to-latest*, mirroring ADIOS2 SST's
  ``Discard`` queue policy on the consumer
  side: a small bounded queue whose **oldest** frame is evicted when a
  new one arrives, so a slow client sees a strictly increasing
  subsequence of steps and never stalls the publisher.  ``max_fps``
  gates *enqueue*: frames arriving faster than the budget park in a
  single deferred slot (newest wins) and are promoted once the
  interval elapses.  The session is *externally synchronized*: it
  carries no lock of its own.  All publisher-side state is touched
  only under the owning pump's condition, which is what makes a
  session cheap enough to have 100k of and trivially migratable
  between relays (its queue, deferred slot and cursor are plain
  fields that move with the object).
- :class:`SessionPump` — one condition + one service loop per relay.
  ``ingest`` is the publisher-facing edge: an O(1) inbox append and a
  single ``notify_all``, independent of how many sessions the relay
  carries (the ``notifies`` counter is the "O(1) wakeups per publish"
  invariant the mesh tests pin).  The pump's service pass drains the
  inbox and fans each frame out to its sessions — on the *relay's*
  thread, never the publisher's.

A global publish sequence number (``Frame.seq``) doubles as the
cross-relay dedup cursor: every relay sees every frame, so after a
relay handoff the new relay may replay frames the session already
consumed — ``MeshSession`` skips anything at or below its cursor,
keeping delivered steps strictly increasing across migrations.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field

from repro.serve.framestore import EdgeCache, Frame

__all__ = ["MeshSession", "SessionPump", "SessionStats"]


@dataclass
class SessionStats:
    """Delivery accounting for one client."""

    offered: int = 0            # frames the pump presented to this session
    delivered: int = 0          # frames the client actually took
    dropped: int = 0            # evicted by backpressure (queue full)
    rate_limited: int = 0       # superseded while parked in the deferred slot
    bytes_out: int = 0          # payload bytes delivered
    steps: list = field(default_factory=list)   # steps delivered, in order

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "rate_limited": self.rate_limited,
            "bytes_out": self.bytes_out,
        }


class MeshSession:
    """One mesh client: session state synchronized by its relay's pump."""

    __slots__ = (
        "sid", "key", "streams", "depth", "label", "closed", "stats",
        "_min_interval", "_clock", "_pending", "_deferred",
        "_last_enqueue", "_last_seq", "_on_delivered", "_on_close",
        "_pump", "_plain",
    )

    def __init__(
        self,
        sid: int,
        key: str | None = None,
        streams: tuple[str, ...] | None = None,
        depth: int = 2,
        max_fps: float | None = None,
        label: str = "",
        clock=_time.perf_counter,
        on_delivered=None,
        on_close=None,
    ):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if max_fps is not None and max_fps <= 0:
            raise ValueError("max_fps must be positive")
        self.sid = sid
        self.label = label or f"client-{sid}"
        #: consistent-hash placement key (stable across reconnects of
        #: the same viewer, so a client lands on the same relay)
        self.key = key if key is not None else self.label
        self.streams = tuple(streams) if streams else None
        self.depth = depth
        self._min_interval = (1.0 / max_fps) if max_fps else 0.0
        self._clock = clock
        self._pending: deque[Frame] = deque()
        self._deferred: Frame | None = None
        self._last_enqueue = -float("inf")
        #: highest publish seq this session has observed — the dedup
        #: cursor that makes post-migration re-offers harmless
        self._last_seq = -1
        self._on_delivered = on_delivered
        self._on_close = on_close
        self._pump: "SessionPump | None" = None
        #: eligible for the pump's inlined fan-out path
        self._plain = self.streams is None and not self._min_interval
        self.closed = False
        self.stats = SessionStats()

    # -- publisher side (pump cond held) -----------------------------------
    def wants(self, stream: str) -> bool:
        return self.streams is None or stream in self.streams

    def _offer_locked(self, frame: Frame, now: float) -> bool:
        """Offer under the owning pump's condition; False once closed."""
        if self.closed:
            return False
        if not self.wants(frame.stream):
            return True
        if frame.seq <= self._last_seq:
            return True       # already seen (relay handoff replay)
        self._last_seq = frame.seq
        self.stats.offered += 1
        if self._min_interval and (
            now - self._last_enqueue < self._min_interval
        ):
            if self._deferred is not None:
                self.stats.rate_limited += 1
            self._deferred = frame          # newest wins
            return True
        self._enqueue_locked(frame, now)
        return True

    def _enqueue_locked(self, frame: Frame, now: float) -> None:
        if self._deferred is not None:
            self.stats.rate_limited += 1    # superseded by this enqueue
            self._deferred = None
        while len(self._pending) >= self.depth:
            self._pending.popleft()         # drop-to-latest: oldest goes
            self.stats.dropped += 1
            self._pump.dropped += 1
        self._pending.append(frame)
        self._last_enqueue = now

    def _promote_deferred_locked(self) -> None:
        if self._deferred is None:
            return
        now = self._clock()
        if now - self._last_enqueue >= self._min_interval:
            frame, self._deferred = self._deferred, None
            self._enqueue_locked(frame, now)

    # -- client side --------------------------------------------------------
    def take(self, timeout: float | None = None, block: bool = True) -> Frame | None:
        """Next pending frame, oldest first; None on timeout/close.

        Re-reads the owning pump each wait slice, so a blocked take
        survives a mid-wait relay migration: it simply resumes waiting
        on the new relay's condition.
        """
        deadline = None
        if block and timeout is not None:
            deadline = self._clock() + timeout
        while True:
            pump = self._pump
            if pump is None:
                return None                 # never attached / torn down
            frame = None
            with pump.cond:
                self._promote_deferred_locked()
                if self._pending:
                    frame = self._pending.popleft()
                    self.stats.delivered += 1
                    self.stats.bytes_out += frame.nbytes
                    self.stats.steps.append(frame.step)
                elif self.closed or not block:
                    return None
                elif self._pump is pump:
                    if deadline is None:
                        pump.cond.wait(0.1)
                    else:
                        remaining = deadline - self._clock()
                        if remaining <= 0:
                            return None
                        # short slices: promote deferred frames on time
                        # and notice migrations to another pump
                        pump.cond.wait(min(remaining, 0.05))
            if frame is not None:
                if self._on_delivered is not None:
                    self._on_delivered(frame)
                return frame

    def drain(self) -> list[Frame]:
        """Take every immediately available frame (non-blocking)."""
        out = []
        while True:
            frame = self.take(block=False)
            if frame is None:
                return out
            out.append(frame)

    @property
    def backlog(self) -> int:
        pump = self._pump
        if pump is None:
            return len(self._pending)
        with pump.cond:
            return len(self._pending)

    def close(self) -> None:
        pump = self._pump
        if pump is None:
            already, self.closed = self.closed, True
        else:
            with pump.cond:
                already, self.closed = self.closed, True
                pump.cond.notify_all()
        if not already and self._on_close is not None:
            self._on_close(self)


class SessionPump:
    """Per-relay frame multiplexer: one condition, one service loop.

    The publisher calls :meth:`ingest` (O(1): inbox append + one
    notify); the relay's thread calls :meth:`pump_once` to fan the
    inbox out to sessions, feed the edge cache, and maintain the
    recent-frame ring used to backfill migrated or late-joining
    sessions without touching the publisher.
    """

    def __init__(
        self,
        rid: int,
        clock=_time.perf_counter,
        cache: EdgeCache | None = None,
        history: int = 32,
    ):
        self.rid = rid
        self.cond = threading.Condition()
        self.cache = cache if cache is not None else EdgeCache()
        self.history = history
        self._clock = clock
        self.sessions: dict[int, MeshSession] = {}
        self._inbox: deque[Frame] = deque()
        self._recent: dict[str, deque[Frame]] = {}
        self._latest: dict[str, Frame] = {}
        #: publisher-side wakeups issued (one per ingest, independent
        #: of session count — the O(1)-per-publish invariant)
        self.notifies = 0
        self.frames_ingested = 0
        self.offers = 0
        self.service_passes = 0
        #: frames evicted by drop-to-latest while their session was here
        self.dropped = 0

    # -- publisher edge ------------------------------------------------------
    def ingest(self, frame: Frame) -> None:
        """Accept one frame from the publisher; never blocks on clients.

        The append is a bare deque op (atomic under the GIL) and the
        wakeup is *opportunistic*: if the condition is free the pump
        may be asleep, so notify; if it is held, the pump is mid-pass
        and will re-check the inbox anyway — blocking the publisher
        behind a 12k-session fan-out would be a stall by construction.
        """
        self._inbox.append(frame)
        self.notifies += 1
        if self.cond.acquire(blocking=False):
            try:
                self.cond.notify_all()
            finally:
                self.cond.release()

    # -- relay service loop --------------------------------------------------
    def pump_once(self, on_frame=None) -> int:
        """Fan the inbox out to every session; returns frames processed.

        `on_frame` fires once per frame *inside* the pass — the relay
        threads its membership heartbeat through it, so a long fan-out
        over a big shard can never outlive its own lease.
        """
        inbox = self._inbox
        frames = []
        while True:                 # popleft is GIL-atomic, like append
            try:
                frames.append(inbox.popleft())
            except IndexError:
                break
        if not frames:
            return 0
        with self.cond:
            now = self._clock()
            dropped = 0
            for frame in frames:
                self.frames_ingested += 1
                self.cache.put(frame)
                ring = self._recent.get(frame.stream)
                if ring is None:
                    ring = self._recent[frame.stream] = deque()
                ring.append(frame)
                if len(ring) > self.history:
                    ring.popleft()
                self._latest[frame.stream] = frame
                seq = frame.seq
                sessions = self.sessions.values()
                self.offers += len(sessions)
                for session in sessions:
                    # inlined fast path: a plain session (no stream
                    # filter, no max_fps) is the 100k-client common
                    # case, and a method call per session per frame is
                    # the difference between keeping up with the
                    # publisher and falling behind it
                    if (
                        session._plain
                        and not session.closed
                        and seq > session._last_seq
                    ):
                        session._last_seq = seq
                        stats = session.stats
                        stats.offered += 1
                        pending = session._pending
                        if len(pending) >= session.depth:
                            pending.popleft()
                            stats.dropped += 1
                            dropped += 1
                        pending.append(frame)
                        session._last_enqueue = now
                    else:
                        session._offer_locked(frame, now)
                if on_frame is not None:
                    on_frame()
            self.dropped += dropped
            self.service_passes += 1
            self.cond.notify_all()          # wake blocked takers
        return len(frames)

    def wait_for_work(self, timeout: float) -> None:
        with self.cond:
            if not self._inbox:
                self.cond.wait(timeout)

    # -- session management --------------------------------------------------
    def attach(self, session: MeshSession, backfill: bool = False) -> None:
        """Adopt a session; optionally replay retained frames it missed.

        Backfill serves the relay's recent ring through the session's
        normal offer path — the seq cursor drops anything it already
        consumed, so a migrated session resumes exactly where it left
        off and a late joiner paints from the edge cache without a
        publisher round-trip.
        """
        with self.cond:
            self.sessions[session.sid] = session
            session._pump = self
            if backfill:
                now = self._clock()
                frames = sorted(
                    (f for ring in self._recent.values() for f in ring),
                    key=lambda f: f.seq,
                )
                for frame in frames:
                    if frame.seq > session._last_seq:
                        self.cache.get(frame.digest)   # served from edge
                        session._offer_locked(frame, now)
            self.cond.notify_all()

    def detach(self, session: MeshSession) -> None:
        with self.cond:
            self.sessions.pop(session.sid, None)

    def drain_sessions(self) -> list[MeshSession]:
        """Remove and return every session (relay loss / rebalance)."""
        with self.cond:
            sessions = list(self.sessions.values())
            self.sessions.clear()
            return sessions

    # -- edge reads ----------------------------------------------------------
    def latest(self, stream: str) -> Frame | None:
        """Latest frame for `stream` from the edge cache (counts hit/miss)."""
        with self.cond:
            frame = self._latest.get(stream)
            if frame is None:
                self.cache.misses += 1
                return None
            return self.cache.get(frame.digest) or frame

    def replay(self, stream: str) -> list[Frame]:
        """The retained ring for `stream`, oldest first, cache-counted."""
        with self.cond:
            frames = list(self._recent.get(stream, ()))
            for frame in frames:
                self.cache.get(frame.digest)
            return frames

    @property
    def clients(self) -> int:
        with self.cond:
            return len(self.sessions)

    def stats(self) -> dict:
        with self.cond:
            return {
                "clients": len(self.sessions),
                "frames_ingested": self.frames_ingested,
                "notifies": self.notifies,
                "offers": self.offers,
                "service_passes": self.service_passes,
                "dropped": self.dropped,
                "inbox_depth": len(self._inbox),
                "cache": self.cache.stats(),
            }
