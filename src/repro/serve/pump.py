"""Client sessions and the multiplexed pump that feeds them.

One thread for the whole hub, not one per client — an epoll-style
multiplexer:

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
  only under the pump's lock, which is what makes a session cheap
  enough to have 100k of.  Its :class:`SessionStats` keeps the steps
  taken as runs of consecutive steps, so a session's memory grows
  with the gaps in what it took, not with the length of the stream.
- :class:`SessionPump` — one plain lock plus the condition built on
  it, and one service loop.  ``ingest`` is the publisher-facing edge:
  an O(1) inbox append and one ``wake`` event set, independent of how
  many sessions there are (the ``notifies`` counter is the "O(1)
  wakeups per publish" invariant the hub tests pin).  The pump's
  service pass drains the inbox and fans each frame out to its
  sessions — on the *pump's* thread, never the publisher's.

A hub-wide publish sequence number (``Frame.seq``) doubles as each
session's dedup cursor: a late joiner's backfill, read from the
:class:`~repro.serve.framestore.FrameStore`, may include frames still
waiting in the inbox, and ``MeshSession`` skips anything at or below
its cursor when the pump offers them again, keeping delivered steps
strictly increasing.
"""

from __future__ import annotations

import threading
import time as _time
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from repro.serve.framestore import Frame, FrameStore

__all__ = ["MeshSession", "SessionPump", "SessionStats"]


@dataclass(slots=True)
class SessionStats:
    """Delivery accounting for one client.

    The steps taken are recorded as runs of consecutive steps, so a
    session holds O(gaps) memory, not O(frames): the open run is
    ``_start .. _last``, and every closed run is a ``[start, stop)``
    pair in the flat ``_runs`` array.  A take of the next step only
    moves ``_last``; a gap, a repeat or a step back closes the run.
    ``delivered`` and ``steps`` are derived from the runs, whose bounds
    are int64.  The record is written under the pump's lock, so read it
    from a quiescent session or under ``pump.lock``.
    """

    #: frames the pump presented to this session
    offered: int = field(default=0, init=False)
    #: evicted by backpressure (queue full)
    dropped: int = field(default=0, init=False)
    #: superseded while parked in the deferred slot
    rate_limited: int = field(default=0, init=False)
    #: payload bytes delivered
    bytes_out: int = field(default=0, init=False)
    _start: int = field(default=0, init=False, repr=False)
    #: -inf until the first take, which therefore opens a run in _gap
    _last: float = field(default=-float("inf"), init=False, repr=False)
    _runs: array = field(default_factory=lambda: array("q"), init=False,
                         repr=False)

    def _open(self) -> tuple:
        """The open run as [start, stop) bounds; none before a take."""
        if self._last < self._start:
            return ()
        return self._start, self._last + 1

    def _gap(self, step: int) -> None:
        """Close the open run, if any, and open one at `step`."""
        self._runs.extend(self._open())
        self._start = self._last = step

    def _bounds(self) -> array:
        """Every run, the open one closed, as flat [start, stop) bounds."""
        return self._runs + array("q", self._open())

    @property
    def delivered(self) -> int:
        """Frames the client actually took."""
        runs = self._bounds()
        return sum(runs[1::2]) - sum(runs[::2])

    @property
    def steps(self) -> list[int]:
        """Steps delivered, in order."""
        runs = self._bounds()
        return list(chain.from_iterable(map(range, runs[::2], runs[1::2])))

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "rate_limited": self.rate_limited,
            "bytes_out": self.bytes_out,
        }


class MeshSession:
    """One hub client: session state synchronized by the pump."""

    __slots__ = (
        "sid", "streams", "depth", "label", "closed", "stats",
        "_min_interval", "_clock", "_pending", "_deferred",
        "_last_enqueue", "_last_seq", "_on_close",
        "_pump", "_plain",
    )

    def __init__(
        self,
        sid: int,
        streams: tuple[str, ...] | None = None,
        depth: int = 2,
        max_fps: float | None = None,
        label: str = "",
        clock=_time.perf_counter,
        on_close=None,
    ):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if max_fps is not None and max_fps <= 0:
            raise ValueError("max_fps must be positive")
        self.sid = sid
        self.label = label or f"client-{sid}"
        self.streams = tuple(streams) if streams else None
        self.depth = depth
        self._min_interval = (1.0 / max_fps) if max_fps else 0.0
        self._clock = clock
        self._pending: deque[Frame] = deque()
        self._deferred: Frame | None = None
        self._last_enqueue = -float("inf")
        #: highest publish seq this session has observed — the dedup
        #: cursor that makes re-offers after a backfill harmless
        self._last_seq = -1
        self._on_close = on_close
        self._pump: "SessionPump | None" = None
        #: eligible for the pump's inlined fan-out path
        self._plain = self.streams is None and not self._min_interval
        self.closed = False
        self.stats = SessionStats()

    # -- publisher side (pump lock held) -----------------------------------
    def wants(self, stream: str) -> bool:
        return self.streams is None or stream in self.streams

    def _offer_locked(self, frame: Frame, now: float) -> bool:
        """Offer under the pump's lock; False once closed."""
        if self.closed:
            return False
        if not self.wants(frame.stream):
            return True
        if frame.seq <= self._last_seq:
            return True       # already seen (backfilled from the store)
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
        now = self._clock()
        if now - self._last_enqueue >= self._min_interval:
            frame, self._deferred = self._deferred, None
            self._enqueue_locked(frame, now)

    # -- client side --------------------------------------------------------
    def take(self, timeout: float | None = None, block: bool = True) -> Frame | None:
        """Next pending frame, oldest first; None on timeout/close.

        A waiting frame costs one acquire of the pump's lock; the clock
        is read only on the way to a wait.  A blocked take sleeps on the
        pump's condition (notified after every fan-out pass and on
        close), waking early only to promote a due deferred frame.
        """
        pump = self._pump
        if pump is None:
            return None                     # never attached
        deadline = None
        with pump.lock:
            while True:
                if self._deferred is not None:
                    self._promote_deferred_locked()
                if self._pending:
                    frame = self._pending.popleft()
                    nbytes = len(frame.data)
                    stats = self.stats
                    step = frame.step
                    if step - stats._last == 1:
                        stats._last = step      # extends the open run
                    else:
                        stats._gap(step)
                    stats.bytes_out += nbytes
                    pump.delivered += 1
                    pump.bytes_out += nbytes
                    return frame
                if self.closed or not block:
                    return None
                now = self._clock()
                wait = None
                if timeout is not None:
                    if deadline is None:
                        deadline = now + timeout
                    wait = deadline - now
                    if wait <= 0:
                        return None
                if self._deferred is not None:
                    due = self._last_enqueue + self._min_interval - now
                    wait = due if wait is None else min(wait, due)
                pump.cond.wait(wait)

    def drain(self) -> list[Frame]:
        """Take every immediately available frame (non-blocking)."""
        out = []
        while True:
            frame = self.take(block=False)
            if frame is None:
                return out
            out.append(frame)

    def close(self) -> None:
        pump = self._pump
        if pump is None:
            already, self.closed = self.closed, True
        else:
            with pump.lock:
                already, self.closed = self.closed, True
                pump.cond.notify_all()
        if not already and self._on_close is not None:
            self._on_close(self)


class SessionPump:
    """The hub's frame multiplexer: one lock, one service loop.

    The publisher calls :meth:`ingest` (O(1): inbox append + one
    ``wake`` set); the hub's pump thread waits on ``wake``, clears it,
    and calls :meth:`pump_once` to fan the inbox out to every session.
    Backfill reads the hub's :class:`FrameStore`, the one copy of the
    retained frames.
    """

    def __init__(self, store: FrameStore, clock=_time.perf_counter):
        self.store = store
        self.lock = threading.Lock()    # plain: no path re-enters it
        self.cond = threading.Condition(self.lock)
        #: set by every ingest, cleared by the pump thread before it
        #: drains the inbox
        self.wake = threading.Event()
        self._clock = clock
        self.sessions: dict[int, MeshSession] = {}
        self._inbox: deque[Frame] = deque()
        #: publisher-side wakeups issued (one per ingest, independent
        #: of session count — the O(1)-per-publish invariant)
        self.notifies = 0
        self.frames_ingested = 0
        self.offers = 0
        self.service_passes = 0
        #: frames evicted by drop-to-latest while their session was here
        self.dropped = 0
        #: frames and payload bytes taken by any session, on any thread
        self.delivered = 0
        self.bytes_out = 0

    # -- publisher edge ------------------------------------------------------
    def ingest(self, frame: Frame) -> None:
        """Accept one frame from the publisher; never blocks on clients.

        The append is a bare deque op (atomic under the GIL) and the
        wakeup is an :class:`threading.Event` set, which never waits
        behind a fan-out pass — the pump holds ``lock``, not the event,
        while it serves sessions.
        """
        self._inbox.append(frame)
        self.notifies += 1
        self.wake.set()

    # -- service loop --------------------------------------------------------
    def pump_once(self) -> int:
        """Fan the inbox out to every session; returns frames processed."""
        inbox = self._inbox
        frames = []
        while True:                 # popleft is GIL-atomic, like append
            try:
                frames.append(inbox.popleft())
            except IndexError:
                break
        if not frames:
            return 0
        with self.lock:
            now = self._clock()
            dropped = 0
            for frame in frames:
                self.frames_ingested += 1
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
            self.dropped += dropped
            self.service_passes += 1
            self.cond.notify_all()          # wake blocked takers
        return len(frames)

    # -- session management --------------------------------------------------
    def attach(self, session: MeshSession, backfill: bool = False) -> None:
        """Adopt a session; optionally replay the store's retained frames.

        Backfill serves the history ring through the session's normal
        offer path, in publish order, so a late joiner paints at once
        without a publisher round-trip; the seq cursor then drops any
        of those frames the pump offers again.
        """
        with self.lock:
            self.sessions[session.sid] = session
            session._pump = self
            if backfill:
                now = self._clock()
                store = self.store
                retained = [f for s in store.streams() for f in store.frames(s)]
                for frame in sorted(retained, key=lambda f: f.seq):
                    session._offer_locked(frame, now)
            self.cond.notify_all()

    def detach(self, session: MeshSession) -> None:
        with self.lock:
            self.sessions.pop(session.sid, None)

    def stats(self) -> dict:
        with self.lock:
            return {
                "clients": len(self.sessions),
                "frames_ingested": self.frames_ingested,
                "notifies": self.notifies,
                "offers": self.offers,
                "service_passes": self.service_passes,
                "dropped": self.dropped,
                "inbox_depth": len(self._inbox),
            }
