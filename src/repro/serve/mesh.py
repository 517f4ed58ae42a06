"""The serving hub: one frame store, one pump thread, every client.

The one serving path:

- :meth:`ServeMesh.publish` stores the frame once (origin
  :class:`~repro.serve.framestore.FrameStore`, payloads interned by
  content hash) and hands it to the hub's
  :class:`~repro.serve.pump.SessionPump` — one O(1) inbox append, so
  100k clients cost the simulation exactly what 10 did;
- the pump's one thread fans the frame out to every session, and a
  late joiner's backfill and ``GET /replay`` read the store's history
  ring directly (there is no second copy at the edge).

Because fan-out happens on the pump thread, ``publish`` returning does
not mean the frame is in the session queues yet;
:meth:`ServeMesh.settle` is the one synchronisation point that does
(``close`` settles first, so no published frame is lost at teardown).
A slow pump is only slow: nothing times it out, so a hub whose pump
thread is starved for any length of time closes no session and
refuses no connect.
"""

from __future__ import annotations

import threading
import time as _time

from repro.observe.session import active, get_telemetry
from repro.serve.framestore import Frame, FrameStore
from repro.serve.pump import MeshSession, SessionPump

__all__ = ["HubFull", "ServeMesh"]

#: a "stall" is a publish() that took longer than this [s] — with one
#: O(1) inbox append it should never fire; the tests assert 0
STALL_THRESHOLD_S = 0.25


class HubFull(RuntimeError):
    """Raised when connect() would exceed the hub's client budget."""


class ServeMesh:
    """One serving hub: publisher -> frame store -> pump -> sessions."""

    def __init__(
        self,
        relays: int = 1,
        history: int = 32,
        default_depth: int = 2,
        max_clients: int | None = None,
        clock=_time.perf_counter,
        telemetry=None,
        start: bool = True,
    ):
        # `relays` survives only as the serve_fanout workload's keyword
        if relays != 1:
            raise ValueError("relays must be 1: one pump serves every client")
        self.default_depth = default_depth
        self.max_clients = max_clients
        self._clock = clock
        self.store = FrameStore(history)
        self.pump = SessionPump(self.store, clock=clock)
        self._tel = telemetry if telemetry is not None else get_telemetry()
        self._lock = threading.Lock()
        self._sessions: dict[int, MeshSession] = {}
        self._seq = 0
        self._next_sid = 0
        self.closed = False
        self.stalls = 0
        self.max_publish_s = 0.0
        self.frames_published = 0
        self.peak_clients = 0
        # the store's and the pump's ledgers are the record; the
        # registry reads them
        metrics = self._tel.metrics
        store, pump = self.store, self.pump
        metrics.counter(
            "repro_serve_cache_hits_total",
            "Frame puts whose payload was already interned",
            read=lambda: store.frames_deduped,
        )
        metrics.counter(
            "repro_serve_cache_misses_total",
            "Frame puts that interned a new payload",
            read=lambda: store.frames_stored - store.frames_deduped,
        )
        metrics.counter(
            "repro_serve_frames_dropped_total",
            "Frames evicted by drop-to-latest backpressure",
            read=lambda: pump.dropped,
        )
        metrics.counter(
            "repro_serve_frames_sent_total", "Frames delivered to clients",
            read=lambda: pump.delivered,
        )
        metrics.counter(
            "repro_serve_bytes_out_total", "Frame payload bytes delivered",
            read=lambda: pump.bytes_out,
        )
        self._stop = False
        self._pumping = False
        self._thread: threading.Thread | None = None
        if start:
            self._pumping = True
            self._thread = threading.Thread(
                target=self._run, name="serve-pump", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        pump = self.pump
        # telemetry is thread-local; adopt the hub's session so what
        # the pump records lands in the publisher's registry
        with active(self._tel):
            try:
                while not self._stop:
                    pump.wake.wait()
                    # cleared before the drain: a frame ingested from
                    # here on sets it again, so no wakeup is lost
                    pump.wake.clear()
                    pump.pump_once()
            finally:
                with pump.lock:
                    self._pumping = False
                    pump.cond.notify_all()

    # -- client lifecycle --------------------------------------------------
    def connect(
        self,
        streams: tuple[str, ...] | None = None,
        depth: int | None = None,
        max_fps: float | None = None,
        label: str = "",
        backfill: bool = False,
    ):
        """Attach a new session; `backfill` offers it the history ring."""
        with self._lock:
            if self.closed:
                raise HubFull("hub is closed")
            if (
                self.max_clients is not None
                and len(self._sessions) >= self.max_clients
            ):
                raise HubFull(
                    f"hub at max_clients={self.max_clients}; connection refused"
                )
            sid = self._next_sid
            self._next_sid += 1
            session = MeshSession(
                sid,
                streams=streams,
                depth=depth if depth is not None else self.default_depth,
                max_fps=max_fps,
                label=label,
                clock=self._clock,
                on_close=self._reap,
            )
            self._sessions[sid] = session
            count = len(self._sessions)
            self.peak_clients = max(self.peak_clients, count)
        self.pump.attach(session, backfill=backfill)
        # the hub's registry, whatever thread the viewer connects from
        tel = self._tel
        if tel.enabled:
            tel.metrics.gauge(
                "repro_serve_clients", "Connected serving clients", agg="max"
            ).set(count)
            tel.tracer.instant("serve.connect", sid=sid, label=session.label)
        return session

    def disconnect(self, session) -> None:
        session.close()     # fires _reap, which releases the slot

    def _reap(self, session: MeshSession) -> None:
        """Release a closed session's budget slot *immediately*.

        Fired by ``MeshSession.close`` — whether the client went
        through :meth:`disconnect` or its transport closed the session
        directly (an HTTP stream dropping mid-publish) — so reconnect
        churn never wedges at ``max_clients``.
        """
        self.pump.detach(session)
        with self._lock:
            self._sessions.pop(session.sid, None)
            count = len(self._sessions)
        tel = self._tel
        if tel.enabled:
            tel.metrics.gauge(
                "repro_serve_clients", "Connected serving clients", agg="max"
            ).set(count)
            tel.tracer.instant("serve.disconnect", sid=session.sid)

    # -- publishing --------------------------------------------------------
    def publish(self, stream: str, step: int, time: float, data: bytes,
                encoding: str = "png", raw_nbytes: int = 0) -> Frame:
        """Store once, hand to the pump.  O(1), never O(clients).

        Signature matches the Catalyst adaptor's ``publisher`` callback:
        ``publisher(name, step, time, png_bytes)``.  Codec-encoded field
        frames pass ``encoding="rbp3"`` plus their pre-codec size.
        """
        tel = get_telemetry()
        t0 = self._clock()
        with tel.tracer.span("serve.publish", stream=stream, step=step):
            with self._lock:
                seq = self._seq
                self._seq += 1
            frame = self.store.put(
                stream, step, time, data, seq, published_at=t0,
                encoding=encoding, raw_nbytes=raw_nbytes,
            )
            self.pump.ingest(frame)
        elapsed = self._clock() - t0
        self.max_publish_s = max(self.max_publish_s, elapsed)
        if elapsed > STALL_THRESHOLD_S:
            self.stalls += 1
            tel.live.event("publish_stall")
        self.frames_published += 1
        if tel.live.enabled:
            tel.live.note_frame(stream, step, t0)
        if tel.enabled:
            tel.metrics.counter(
                "repro_serve_frames_published_total",
                "Frames published to the hub",
            ).inc()
        return frame

    def settle(self) -> None:
        """Return once every published frame is in its sessions' queues.

        A running pump is waited on (it notifies the condition after
        each pass); a hub started with ``start=False`` is serviced right
        here on the caller's thread; a stopped pump is not waited on.
        """
        pump = self.pump
        if self._thread is None:
            pump.pump_once()
            return
        with pump.lock:
            while pump.frames_ingested < pump.notifies and self._pumping:
                pump.cond.wait()

    def relay_replay(self, stream: str) -> list[Frame]:
        """The replay window for `stream`: the store's history ring (the
        name is the one ``benchmarks/e2e`` calls)."""
        return self.store.frames(stream)

    # -- queries -----------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            client_count = len(self._sessions)
        store = self.store.stats()
        hits = store["frames_deduped"]
        misses = store["frames_stored"] - hits
        return {
            "clients": client_count,
            "peak_clients": self.peak_clients,
            "frames_published": self.frames_published,
            "stalls": self.stalls,
            "max_publish_ms": self.max_publish_s * 1e3,
            "store": store,
            "pump": self.pump.stats(),
            # the interning ledger: a hit is a put whose payload the
            # store already held
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
        }

    def close(self) -> None:
        """Settle, stop the pump, close every session.

        Frames already published stay drainable from the closed
        sessions; later publishes are no-ops for clients.
        """
        self.settle()
        with self._lock:
            self.closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
        self._stop = True
        self.pump.wake.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        for session in sessions:
            session.close()
