"""The serving mesh: sharded relay hubs behind one publisher.

The one serving path.  Serving is split into two tiers:

- the **publisher tier**: :meth:`ServeMesh.publish` stores the frame
  once (origin :class:`~repro.serve.framestore.FrameStore`, payloads
  interned by content hash) and pushes it to each of K
  :class:`RelayHub`\\ s — an O(K) loop of O(1) inbox appends,
  independent of client count, so 100k clients cost the simulation
  exactly what 10 did;
- the **relay tier**: each relay runs one
  :class:`~repro.serve.pump.SessionPump` thread that fans its shard of
  sessions out, plus a content-addressed
  :class:`~repro.serve.framestore.EdgeCache` that serves replays and
  late joiners without touching the publisher.

A workstation viewer is the ``relays=1`` case of the same code.
Because fan-out happens on the relay threads, ``publish`` returning
does not mean the frame is in the session queues yet;
:meth:`ServeMesh.settle` is the one synchronisation point that does
(``close`` settles first, so no published frame is lost at teardown).

Clients are placed on relays with the consistent-hash
:class:`~repro.fleet.ring.HashRing` (stable placement keys → sticky
relays, bounded movement on join/leave).  Relay liveness rides the
:class:`~repro.fleet.membership.FleetMembership` heartbeat leases: a
relay whose pump thread dies simply stops heartbeating, the next
:meth:`ServeMesh.check` declares it dead, removes its arc from the
ring, and reattaches its sessions — with their queues, deferred slots
and delivery cursors intact — to the surviving relays, which backfill
missed frames from their edge caches.  No committed (delivered) step
is ever lost or repeated across a handoff.
"""

from __future__ import annotations

import threading
import time as _time

from repro.fleet.membership import FleetMembership
from repro.fleet.ring import HashRing
from repro.observe.session import active, get_telemetry
from repro.serve.framestore import EdgeCache, Frame, FrameStore
from repro.serve.pump import MeshSession, SessionPump

__all__ = ["HubFull", "RelayHub", "ServeMesh"]

#: how long an idle relay pump (or a settle() waiter) sleeps on its
#: condition before re-checking liveness [s]
POLL_INTERVAL_S = 0.002


class HubFull(RuntimeError):
    """Raised when connect() would exceed the mesh's client budget."""


class RelayHub:
    """One relay: a pump thread, an edge cache, a heartbeat lease."""

    def __init__(
        self,
        rid: int,
        membership: FleetMembership,
        clock=_time.perf_counter,
        cache_capacity: int = 128,
        history: int = 32,
        telemetry=None,
    ):
        self.rid = rid
        self.membership = membership
        self.pump = SessionPump(
            rid, clock=clock, cache=EdgeCache(cache_capacity), history=history
        )
        self._tel = telemetry if telemetry is not None else get_telemetry()
        self._stop = False
        self._thread: threading.Thread | None = None
        self.steer_forwarded = 0
        self.origin_fetches = 0
        # last values mirrored into telemetry counters (deltas only)
        self._mirrored_hits = 0
        self._mirrored_misses = 0
        self._mirrored_dropped = 0

    def start(self) -> None:
        self.membership.register(self.rid)
        self._thread = threading.Thread(
            target=self._run, name=f"relay-{self.rid}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        # telemetry is thread-local; adopt the mesh's session so cache
        # counters and relay gauges land in the publisher's registry
        with active(self._tel):
            while not self._stop:
                self._heartbeat()
                # heartbeat rides the fan-out too: a pass over a big
                # shard must not outlive the relay's own lease
                serviced = self.pump.pump_once(on_frame=self._heartbeat)
                self._mirror_metrics()
                if not serviced and not self._stop:
                    self.pump.wait_for_work(POLL_INTERVAL_S)

    def settle(self) -> None:
        """Return once every frame ingested so far has been fanned out.

        A running relay is waited on (its pump notifies the condition
        after each pass); a relay whose thread was never started is
        serviced right here on the caller's thread; a stopped or
        killed relay is skipped — its sessions are ``check()``'s job.
        """
        pump = self.pump
        if self._thread is None:
            pump.pump_once()
            self._mirror_metrics()
            return
        with pump.cond:
            while pump.frames_ingested != pump.notifies and self.alive:
                pump.cond.wait(POLL_INTERVAL_S)

    def _heartbeat(self) -> None:
        try:
            self.membership.heartbeat(self.rid)
        except KeyError:
            pass

    def _mirror_metrics(self) -> None:
        tel = self._tel
        if not tel.enabled:
            return
        cache = self.pump.cache
        dh = cache.hits - self._mirrored_hits
        dm = cache.misses - self._mirrored_misses
        if dh:
            tel.metrics.counter(
                "repro_serve_cache_hits_total",
                "Edge-cache hits across relay hubs",
            ).inc(dh)
            self._mirrored_hits = cache.hits
        if dm:
            tel.metrics.counter(
                "repro_serve_cache_misses_total",
                "Edge-cache misses across relay hubs",
            ).inc(dm)
            self._mirrored_misses = cache.misses
        dd = self.pump.dropped - self._mirrored_dropped
        if dd:
            tel.metrics.counter(
                "repro_serve_frames_dropped_total",
                "Frames evicted by drop-to-latest backpressure",
            ).inc(dd)
            self._mirrored_dropped += dd
        tel.metrics.gauge(
            "repro_serve_relay_clients",
            "Clients attached to a relay hub",
            agg="max",
            const_labels={"relay": str(self.rid)},
        ).set(len(self.pump.sessions))
        tel.memory.observe(
            f"serve.edgecache.{self.rid}", cache.payload_bytes
        )

    def stop(self) -> None:
        """Stop the pump thread (planned departure or teardown)."""
        self._stop = True
        with self.pump.cond:
            self.pump.cond.notify_all()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=2.0)

    def kill(self) -> None:
        """Simulate an unplanned crash: the thread dies, the lease does
        not get renewed, and nobody tells the mesh — detection must come
        from lease expiry in :meth:`ServeMesh.check`."""
        self.stop()

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stats(self) -> dict:
        out = self.pump.stats()
        out["steer_forwarded"] = self.steer_forwarded
        out["origin_fetches"] = self.origin_fetches
        out["alive"] = self.alive
        return out


class ServeMesh:
    """Two-tier fan-out: publisher -> K relays -> sharded sessions."""

    def __init__(
        self,
        relays: int = 4,
        history: int = 32,
        default_depth: int = 2,
        max_clients: int | None = None,
        clock=_time.perf_counter,
        stall_threshold_s: float = 0.25,
        lease_timeout_s: float = 0.25,
        cache_capacity: int = 128,
        vnodes: int = 64,
        seed: int = 0,
        telemetry=None,
        start: bool = True,
    ):
        if relays < 1:
            raise ValueError("relays must be >= 1")
        self.default_depth = default_depth
        self.max_clients = max_clients
        self._clock = clock
        #: a "stall" is a publish() that took suspiciously long — with
        #: O(relays) inbox appends this should never fire; the tests
        #: assert 0
        self.stall_threshold_s = stall_threshold_s
        self.bus = None
        self.store = FrameStore(history)
        self._tel = telemetry if telemetry is not None else get_telemetry()
        self.membership = FleetMembership(
            lease_timeout=lease_timeout_s, clock=_time.monotonic
        )
        self.ring = HashRing(vnodes=vnodes, seed=seed)
        self._relays: dict[int, RelayHub] = {}
        self._lost: list[int] = []
        self._history = history
        self._cache_capacity = cache_capacity
        self._lock = threading.Lock()
        self._sessions: dict[int, MeshSession] = {}
        self._by_label: dict[str, MeshSession] = {}
        self._seq = 0
        self._next_sid = 0
        self._next_rid = 0
        self.closed = False
        self.stalls = 0
        self.max_publish_s = 0.0
        self.frames_published = 0
        self.peak_clients = 0
        self.migrations: list[dict] = []
        for _ in range(relays):
            self.add_relay(start=start)

    # -- relay lifecycle ---------------------------------------------------
    def add_relay(self, start: bool = True) -> int:
        """Bring one relay online; rebalances only the moved arc.

        Sessions whose placement key now hashes onto the new relay are
        detached from their old relay and reattached with backfill —
        the consistent-hash ring guarantees nothing else moves.
        """
        with self._lock:
            rid = self._next_rid
            self._next_rid += 1
        relay = RelayHub(
            rid,
            self.membership,
            clock=self._clock,
            cache_capacity=self._cache_capacity,
            history=self._history,
            telemetry=self._tel,
        )
        with self._lock:
            sessions = list(self._sessions.values())
            before = self.ring.assignment(s.key for s in sessions)
        self.ring.add(rid)
        self._relays[rid] = relay
        if start:
            relay.start()
        else:
            self.membership.register(rid)
        moved = 0
        for session in sessions:
            if self.ring.assign(session.key) == before[session.key]:
                continue
            old = self._relays.get(before[session.key])
            if old is not None:
                old.pump.detach(session)
            relay.pump.attach(session, backfill=True)
            moved += 1
        if moved:
            self.migrations.append(
                {"relay": rid, "kind": "join", "sessions_moved": moved}
            )
        return rid

    def remove_relay(self, rid: int) -> dict:
        """Planned departure: stop heartbeating, hand sessions off."""
        self.membership.leave(rid)
        return self._migrate_relay(rid, planned=True)

    def kill_relay(self, rid: int) -> None:
        """Crash a relay without telling the mesh (fault injection)."""
        self._relays[rid].kill()

    def _migrate_relay(self, rid: int, planned: bool) -> dict:
        t0 = self._clock()
        relay = self._relays.pop(rid, None)
        self.ring.remove(rid)
        if relay is None:
            return {"relay": rid, "kind": "noop", "sessions_moved": 0}
        relay.stop()
        sessions = relay.pump.drain_sessions()
        moved = 0
        for session in sessions:
            if session.closed:
                continue
            if not self.ring.members:
                session.close()     # no live relay left to carry it
                continue
            target = self._relays[self.ring.assign(session.key)]
            # state (queue, deferred slot, seq cursor) travels with the
            # object; backfill replays only what the cursor hasn't seen
            target.pump.attach(session, backfill=True)
            moved += 1
        record = {
            "relay": rid,
            "kind": "leave" if planned else "crash",
            "sessions_moved": moved,
            "seconds": self._clock() - t0,
        }
        self._lost.append(rid)
        self.migrations.append(record)
        tel = self._tel
        if tel.enabled:
            tel.metrics.counter(
                "repro_serve_relay_migrations_total",
                "Relay departures that moved sessions",
            ).inc()
            tel.tracer.instant(
                "serve.migrate", relay=rid, moved=moved, planned=planned
            )
        return record

    def check(self, now: float | None = None) -> list[dict]:
        """Lease sweep: expire dead relays and migrate their sessions."""
        records = []
        for rid in self.membership.expire(now):
            if rid in self._relays:
                records.append(self._migrate_relay(rid, planned=False))
        return records

    # -- client lifecycle --------------------------------------------------
    def connect(
        self,
        streams: tuple[str, ...] | None = None,
        depth: int | None = None,
        max_fps: float | None = None,
        label: str = "",
        key: str | None = None,
        backfill: bool = False,
    ):
        """Place a new session on its ring-assigned relay."""
        with self._lock:
            if self.closed:
                raise HubFull("mesh is closed")
            if (
                self.max_clients is not None
                and len(self._sessions) >= self.max_clients
            ):
                raise HubFull(
                    f"mesh at max_clients={self.max_clients}; connection refused"
                )
            sid = self._next_sid
            self._next_sid += 1
            session = MeshSession(
                sid,
                key=key,
                streams=streams,
                depth=depth if depth is not None else self.default_depth,
                max_fps=max_fps,
                label=label,
                clock=self._clock,
                on_delivered=self._on_delivered,
                on_close=self._reap,
            )
            self._sessions[sid] = session
            self._by_label[session.label] = session
            count = len(self._sessions)
            self.peak_clients = max(self.peak_clients, count)
        if not self.ring.members:
            with self._lock:
                self._sessions.pop(sid, None)
                self._by_label.pop(session.label, None)
            raise HubFull("no live relays")
        self._relays[self.ring.assign(session.key)].pump.attach(
            session, backfill=backfill
        )
        tel = get_telemetry()
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
        pump = session._pump
        if pump is not None:
            pump.detach(session)
        with self._lock:
            self._sessions.pop(session.sid, None)
            if self._by_label.get(session.label) is session:
                del self._by_label[session.label]
            count = len(self._sessions)
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.gauge(
                "repro_serve_clients", "Connected serving clients", agg="max"
            ).set(count)
            tel.tracer.instant("serve.disconnect", sid=session.sid)

    def _on_delivered(self, frame: Frame) -> None:
        tel = get_telemetry()
        if tel.enabled:
            tel.metrics.counter(
                "repro_serve_frames_sent_total", "Frames delivered to clients"
            ).inc()
            tel.metrics.counter(
                "repro_serve_bytes_out_total", "Frame payload bytes delivered"
            ).inc(frame.nbytes)

    # -- publishing --------------------------------------------------------
    def publish(self, stream: str, step: int, time: float, data: bytes,
                encoding: str = "png", raw_nbytes: int = 0) -> Frame:
        """Store once, push to K relays.  O(relays), never O(clients).

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
            for relay in list(self._relays.values()):
                relay.pump.ingest(frame)
        elapsed = self._clock() - t0
        self.max_publish_s = max(self.max_publish_s, elapsed)
        if elapsed > self.stall_threshold_s:
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
        # fold the lease sweep into the publish cadence: whoever
        # publishes next detects a dead relay (no monitor thread)
        self.check()
        return frame

    def settle(self) -> None:
        """Return once every published frame is in its sessions' queues."""
        for relay in list(self._relays.values()):
            relay.settle()

    # -- edge reads (HTTP transport) ---------------------------------------
    def relay_for(self, key: str) -> RelayHub | None:
        if not self.ring.members:
            return None
        return self._relays[self.ring.assign(key)]

    def relay_latest(self, stream: str, key: str = "edge") -> Frame | None:
        """Latest frame via the edge tier; origin only on a cold cache."""
        relay = self.relay_for(key)
        if relay is not None:
            frame = relay.pump.latest(stream)
            if frame is not None:
                return frame
            frame = self.store.latest(stream)
            if frame is not None:
                relay.origin_fetches += 1
            return frame
        return self.store.latest(stream)

    def relay_replay(self, stream: str, key: str = "edge") -> list[Frame]:
        """Replay window via the edge tier, falling back to origin."""
        relay = self.relay_for(key)
        if relay is not None:
            frames = relay.pump.replay(stream)
            if frames:
                return frames
            frames = self.store.frames(stream)
            if frames:
                relay.origin_fetches += 1
            return frames
        return self.store.frames(stream)

    # -- steering ----------------------------------------------------------
    def attach_bus(self, bus) -> None:
        self.bus = bus

    def route_steer(self, command):
        """Submit a steering command through the client's relay."""
        if self.bus is None:
            raise RuntimeError("no steering bus attached")
        session = self._by_label.get(getattr(command, "client", ""))
        if session is not None and session._pump is not None:
            rid = session._pump.rid
        elif self.ring.members:
            rid = self.ring.assign(getattr(command, "client", "edge"))
        else:
            rid = None
        if rid is not None and rid in self._relays:
            self._relays[rid].steer_forwarded += 1
        self.bus.submit(command)
        return rid

    # -- queries -----------------------------------------------------------
    @property
    def clients(self) -> int:
        with self._lock:
            return len(self._sessions)

    def sessions(self) -> list:
        with self._lock:
            return list(self._sessions.values())

    def shard_map(self) -> dict:
        """relay id -> client count + lease state (the /status shard map)."""
        out = {}
        for rid, relay in sorted(self._relays.items()):
            state = self.membership.state(rid)
            out[str(rid)] = {
                "clients": relay.pump.clients,
                "state": state.value if state is not None else "unknown",
                "alive": relay.alive,
            }
        return out

    def stats(self) -> dict:
        with self._lock:
            client_count = len(self._sessions)
        caches = [r.pump.cache for r in self._relays.values()]
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        return {
            "clients": client_count,
            "peak_clients": self.peak_clients,
            "frames_published": self.frames_published,
            "stalls": self.stalls,
            "max_publish_ms": self.max_publish_s * 1e3,
            "store": self.store.stats(),
            "relays": {
                str(rid): relay.stats()
                for rid, relay in sorted(self._relays.items())
            },
            "shard_map": self.shard_map(),
            "ring": {
                "members": list(self.ring.members),
                "vnodes": self.ring.vnodes,
            },
            "membership": self.membership.snapshot(),
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
            "migrations": list(self.migrations),
            "lost_relays": list(self._lost),
        }

    def close(self) -> None:
        """Settle, stop the relays, close every session.

        Frames already published stay drainable from the closed
        sessions; later publishes are no-ops for clients.
        """
        self.settle()
        with self._lock:
            self.closed = True
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._by_label.clear()
        for relay in self._relays.values():
            relay.stop()
        for session in sessions:
            session.close()
