"""FleetCoordinator: membership + routing + recovery for endpoint ranks.

The coordinator is the shared-memory control plane of the in-transit
endpoint fleet (one instance per run, handed to every endpoint rank,
exactly like the :class:`~repro.adios.engine.SSTBroker` it routes
for).  It composes the fleet pieces:

- **membership** — heartbeat leases (:mod:`repro.fleet.membership`);
  an endpoint that stops polling is declared dead when its lease
  lapses, with no dedicated monitor thread — unless it holds a task
  or rests, in which case it is working or waiting, not silent (see
  ``_reap``); one whose loop raises reports its own death (``fail``);
- **routing** — producer streams (writer ranks) are assigned to
  endpoints through a consistent-hash ring
  (:mod:`repro.fleet.ring`), so membership changes move only the
  departed member's streams (bounded disruption);
- **assembly** — ingested payloads are CRC-checked (``RBP2`` /
  ``RBP3`` frames) and grouped by simulation step; a step whose every
  live writer has delivered (or provably never will: later step seen,
  or stream ended) becomes a :class:`~repro.fleet.work.RenderTask`;
- **work stealing** — idle endpoints steal queued render steps from
  the hottest peer (:class:`~repro.fleet.work.WorkQueues`);
- **waiting** — a member with nothing to do rests on the broker's one
  condition (:meth:`FleetCoordinator.rest`) until an event can give it
  work: a step staged, a stream ended, a render step queued, a
  commit, a member joining or leaving.  The earliest active lease
  bounds the wait, so a silent peer is still reaped on time;
- **recovery** — a dead endpoint's queued *and in-flight* tasks are
  requeued to survivors (replay from the retained CRC-checked
  payloads), its streams rebalance, and the injected
  ``endpoint_crash`` resolves as ``recovered`` in the
  :class:`~repro.faults.injector.FaultLog`; a planned leave at the end
  of the run reuses the same retirement path without the fault
  accounting.

Membership is fixed at the paper's static split: every pooled endpoint
joins active and the set only shrinks, on failure or planned leave.

Delivery is at-least-once: a task replayed after its first holder was
written off may be committed twice.  Sinks are idempotent per step
(same file bytes rewritten), and the committed-step ledger
deduplicates, so the zero-lost-committed-steps invariant the
acceptance tests assert is unaffected.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum

from repro.adios.engine import EndOfStream, SSTBroker
from repro.adios.marshal import unmarshal_step
from repro.codec import CodecContext
from repro.faults.errors import (
    CorruptPayloadError,
    EndpointDownError,
    StreamTimeout,
)
from repro.fleet.membership import EndpointState, FleetMembership
from repro.fleet.ring import HashRing
from repro.fleet.work import RenderTask, WorkQueues
from repro.observe.session import get_telemetry


class Directive(Enum):
    """Non-task poll outcomes."""

    IDLE = "idle"       # nothing to do right now; rest, then poll again
    STOP = "stop"       # run complete; endpoint may finalize and exit


@dataclass
class RecoveryRecord:
    """One endpoint loss and the replay that healed it."""

    eid: int
    planned: bool
    detected_at: float
    streams_moved: int
    tasks_requeued: int
    steps_backlogged: int
    commits_at_detect: int
    completed_at: float | None = None
    commits_at_complete: int | None = None
    _pending: set = field(default_factory=set, repr=False)
    _pending_steps: set = field(default_factory=set, repr=False)

    @property
    def recovery_seconds(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.detected_at

    @property
    def steps_to_recover(self) -> int | None:
        """Fleet-wide commits between detection and replay completion."""
        if self.commits_at_complete is None:
            return None
        return self.commits_at_complete - self.commits_at_detect


class FleetCoordinator:
    """Control plane shared by every endpoint rank of one in transit run."""

    def __init__(
        self,
        broker: SSTBroker,
        num_writers: int,
        pool_size: int,
        lease_timeout: float = 0.25,
        seed: int = 0,
        clock=time.monotonic,
        live=None,
    ):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.broker = broker
        self.num_writers = num_writers
        self.pool = tuple(range(pool_size))
        self.clock = clock
        self.membership = FleetMembership(lease_timeout, clock=clock)
        self.ring = HashRing(seed=seed)
        self.queues = WorkQueues(self.pool)
        #: attached :class:`~repro.observe.live.plane.LivePlane`, if any;
        #: gets crash/recovery events
        self.live = live
        self._lock = threading.RLock()
        # per-writer stream progress
        self._got: dict[int, int] = {}           # delivered payload ordinal
        self._highwater: dict[int, int] = {}     # newest sim step seen
        self._ended: set[int] = set()
        self._geometry: dict[int, object] = {}   # writer -> first payload
        # per-writer codec state for temporal-delta RBP3 streams; _ingest
        # decodes each writer's queue in FIFO order, so references stay valid
        self._codec_ctx: dict[int, CodecContext] = {}
        # step assembly + ledgers
        self._assembly: dict[int, dict] = {}     # sim step -> {writer: payload}
        self.assembled: set[int] = set()
        self.committed: set[int] = set()
        self.commits = 0
        self.corrupt_steps = 0
        self._inflight: dict[int, list[RenderTask]] = {}
        # members blocked in rest(), and the broker's event count as each
        # member's last poll began (what its next rest waits past)
        self._resting: set[int] = set()
        self._seen: dict[int, int] = {}
        # recovery bookkeeping
        self.recoveries: list[RecoveryRecord] = []
        self.rebalances = 0
        self.crashes_detected = 0
        self.planned_retirements = 0
        # the coordinator is shared by every endpoint rank: its counters
        # sit on the registry of the rank that built it
        metrics = get_telemetry().metrics
        metrics.counter(
            "repro_fleet_commits_total", "Render steps committed by the fleet",
            read=lambda: self.commits,
        )
        metrics.counter(
            "repro_fleet_steals_total", "Render steps stolen by idle endpoints",
            read=lambda: self.queues.stolen,
        )

    # -- membership entry points -------------------------------------------
    def join(self, eid: int) -> None:
        """Register an endpoint as an active member."""
        if eid not in self.pool:
            raise ValueError(f"endpoint {eid} is not in the fleet pool")
        with self._lock:
            self.membership.register(eid)
            self.ring.add(eid)
            self.broker.notify()      # streams may have changed owner

    def depart(self, eid: int) -> None:
        """Planned, graceful exit (end of run)."""
        with self._lock:
            if self.membership.state(eid) is EndpointState.ACTIVE:
                self._retire(eid, planned=True)
            self.membership.leave(eid)

    def fail(self, eid: int) -> None:
        """Unplanned exit reported by the member itself (its loop
        raised): retire it now and replay what it held, rather than
        wait on a lease its peers keep renewing while it holds a task."""
        with self._lock:
            if self.membership.fail(eid):
                self._retire(eid, planned=False)

    # -- the endpoint's main calls -----------------------------------------
    def poll(self, eid: int):
        """Heartbeat, reap, ingest, and hand out one unit of work.

        Returns a :class:`RenderTask`, or a :class:`Directive`.
        """
        self._seen[eid] = self.broker.events
        self.membership.heartbeat(eid)
        self._reap(eid)
        self._flush_if_abandoned(eid)
        state = self.membership.state(eid)
        if state in (EndpointState.DEAD, EndpointState.LEFT):
            # a zombie: declared dead while merely slow.  Its work was
            # requeued; let it exit instead of double-processing.
            return Directive.STOP
        if self.done():
            return Directive.STOP
        self._ingest(eid)
        task = self.queues.pop(eid)
        if task is None:
            stolen = self.queues.steal(eid, candidates=self.membership.active_ids())
            if stolen is not None:
                task, victim = stolen
                get_telemetry().tracer.instant(
                    "fleet.steal", thief=eid, victim=victim, step=task.step
                )
        if task is None:
            return Directive.IDLE
        with self._lock:
            self._inflight.setdefault(eid, []).append(task)
        return task

    def rest(self, eid: int) -> bool:
        """Wait, after IDLE, until something may have changed.

        Everything that can give a member work bumps the broker's
        ``events``: a step staged or a stream ended (the broker's own
        events), and a render step queued, a commit, a member joining,
        leaving or failing (this coordinator's, through
        ``broker.notify``).  The member sleeps on the broker's condition
        until the count moves past the value it read when its last poll
        began, so nothing that happened since is missed.  A lease lapse
        is the one event with a deadline instead of a notifier: the wait
        ends at the earliest lease of any active member, so a silent
        peer is reaped on time.  A resting member is alive by
        construction (members are threads), so, like a task holder, its
        peers renew its lease while it waits.  Returns whether an event
        ended the wait.
        """
        with self._lock:
            self._resting.add(eid)
            self._renew_busy()
        deadline = self.membership.next_expiry()
        timeout = (
            self.membership.lease_timeout if deadline is None
            else max(0.0, deadline - self.clock())
        )
        try:
            with get_telemetry().tracer.span("fleet.rest", endpoint=eid):
                return self.broker.wait(self._seen.get(eid, -1), timeout)
        finally:
            with self._lock:
                self.membership.heartbeat(eid)
                self._resting.discard(eid)

    def commit(self, eid: int, task: RenderTask) -> None:
        """Mark a render task done (idempotent per step)."""
        now = self.clock()
        healed: list[RecoveryRecord] = []
        with self._lock:
            inflight = self._inflight.get(eid, [])
            if task in inflight:
                inflight.remove(task)
            self.committed.add(task.step)
            self.commits += 1
            for record in self.recoveries:
                if record.completed_at is not None:
                    continue
                record._pending.discard(id(task))
                record._pending_steps.discard(task.step)
                if not record._pending and not record._pending_steps:
                    record.completed_at = now
                    record.commits_at_complete = self.commits
                    healed.append(record)
            self.broker.notify()      # the run may be done
        if self.live is not None:
            for record in healed:
                self.live.recovery_complete(record.eid, record.recovery_seconds)

    # -- geometry replay ----------------------------------------------------
    def geometry(self, writer: int):
        """Writer `writer`'s retained first-step (geometry) payload.

        A stream that rebalances mid-run lands on an endpoint that
        never saw its geometry step; the coordinator replays it from
        this cache (the payload is the CRC-checked frame, ``RBP2`` or
        ``RBP3``, retained verbatim from ingest).
        """
        with self._lock:
            return self._geometry.get(writer)

    # -- progress / completion ---------------------------------------------
    def done(self) -> bool:
        with self._lock:
            return (
                len(self._ended) == self.num_writers
                and not self._assembly
                and self.queues.total_depth() == 0
                and not any(self._inflight.values())
            )

    def assignment(self) -> dict[int, int]:
        """writer -> endpoint under the current ring membership."""
        with self._lock:
            if not len(self.ring):
                return {}
            return {
                w: self.ring.assign(("writer", w))
                for w in range(self.num_writers)
            }

    def stats(self) -> dict:
        with self._lock:
            return {
                "epoch": self.membership.epoch,
                "active": len(self.membership.active_ids()),
                "dead": len(self.membership.dead_ids()),
                "assembled": len(self.assembled),
                "committed": len(self.committed),
                "commits": self.commits,
                "corrupt_steps": self.corrupt_steps,
                "stolen": self.queues.stolen,
                "rebalances": self.rebalances,
                "crashes_detected": self.crashes_detected,
                "planned_retirements": self.planned_retirements,
                "recoveries": [
                    {
                        "eid": r.eid,
                        "planned": r.planned,
                        "streams_moved": r.streams_moved,
                        "tasks_requeued": r.tasks_requeued,
                        "steps_backlogged": r.steps_backlogged,
                        "recovery_seconds": r.recovery_seconds,
                        "steps_to_recover": r.steps_to_recover,
                    }
                    for r in self.recoveries
                ],
            }

    # -- internals ----------------------------------------------------------
    def _reap(self, reaper: int) -> None:
        """Expire lapsed leases; retire the newly dead.

        Slow is not dead, and idle is not dead either: a member renews
        its lease by polling, which it cannot do while it renders or
        rests, so the polling peer renews it on behalf of every member
        that holds a task or waits in :meth:`rest`.  Members are
        threads: the only way to die with a task in hand is to raise,
        and a member that raises calls :meth:`fail` on its way out.
        """
        with self._lock:
            self._renew_busy()
        for eid in self.membership.expire():
            self._retire(eid, planned=False)
            tel = get_telemetry()
            if tel.enabled:
                tel.tracer.instant("fleet.endpoint_dead", endpoint=eid,
                                   reaper=reaper)

    def _renew_busy(self) -> None:
        """Heartbeat for every member that rests or holds a task.
        Caller holds the lock."""
        holders = {eid for eid, tasks in self._inflight.items() if tasks}
        for eid in holders | self._resting:
            self.membership.heartbeat(eid)

    def _flush_if_abandoned(self, eid: int) -> None:
        """End all streams once the producer side has given up.

        When every writer's retries exhausted (``mark_endpoint_down``),
        the sim degrades its remaining steps locally and ends its
        streams only when the run does.  Treat drained streams as ended
        now so pending assemblies flush and ``done()`` can come true.
        """
        if not self.broker.endpoint_down or self.broker.staged_steps():
            return
        with self._lock:
            if len(self._ended) == self.num_writers:
                return
            self._ended = set(range(self.num_writers))
            # `eid` may be a zombie, whose queue nobody steals from —
            # flush pending assemblies toward an active member
            active = self.membership.active_ids()
            self._complete_assemblies(active[0] if active else eid)
            self.broker.notify()

    def _retire(self, eid: int, planned: bool) -> None:
        """Remove `eid` from routing; requeue its work onto survivors.

        Unplanned loss additionally requeues the in-flight tasks (the
        member will never commit them) and records the recovery in
        ``stats()["recoveries"]``.  Planned retirement leaves in-flight
        tasks alone — the member is alive and finishes what it holds.
        """
        with self._lock:
            before = self.assignment()
            self.ring.remove(eid)
            orphans = self.queues.drain(eid)
            if not planned:
                orphans += self._inflight.pop(eid, [])
            for task in orphans:
                task.attempts += 1
                if len(self.ring):
                    self.queues.push(self.ring.assign(("task", task.step)), task)
            moved = len(HashRing.moved(before, self.assignment()))
            self.rebalances += 1
            self.broker.notify()      # streams and queued work moved
            if planned:
                self.planned_retirements += 1
                return
            self.crashes_detected += 1
            # the recovery is complete once the replay drains: the
            # requeued tasks commit AND every assembly that was stuck
            # waiting on the dead member's streams at detection time
            # commits (those steps can only proceed via the reroute)
            record = RecoveryRecord(
                eid=eid,
                planned=planned,
                detected_at=self.clock(),
                streams_moved=moved,
                tasks_requeued=len(orphans),
                steps_backlogged=len(self._assembly),
                commits_at_detect=self.commits,
                _pending={id(t) for t in orphans},
                _pending_steps=set(self._assembly),
            )
            if not record._pending and not record._pending_steps:
                # nothing to replay: rerouting the streams IS the recovery
                record.completed_at = record.detected_at
                record.commits_at_complete = self.commits
            self.recoveries.append(record)
            self.broker.stats.faults.try_resolve("endpoint_crash", "recovered")
            if self.live is not None:
                # fire the recovery-time SLO at detection and close the
                # dead member's trace track (global rank = writers + eid)
                self.live.crash_detected(
                    eid, rank_hint=self.num_writers + eid
                )
                if record.completed_at is not None:
                    self.live.recovery_complete(eid, record.recovery_seconds)

    def _ingest(self, eid: int) -> None:
        """Drain the broker queues of every stream `eid` currently owns.

        A dequeue is made only when the broker has one ready (a staged
        step, or the stream's end), so an idle member costs no
        ``sst.get`` span and never blocks here; waiting is
        :meth:`rest`'s job.
        """
        owned = [
            w for w, owner in self.assignment().items()
            if owner == eid and w not in self._ended
        ]
        for w in owned:
            while self.broker.ready(w):
                with self._lock:
                    ordinal = self._got.get(w, 0)
                try:
                    raw = self.broker.get(w, step=ordinal, timeout=0)
                except StreamTimeout:
                    break     # the stream's previous owner drained it first
                except (EndOfStream, EndpointDownError):
                    # end mark, or the producer side died and whatever
                    # it staged was drained
                    with self._lock:
                        self._ended.add(w)
                        self._complete_assemblies(eid)
                        self.broker.notify()
                    break
                with self._lock:
                    self._got[w] = ordinal + 1
                    ctx = self._codec_ctx.setdefault(w, CodecContext())
                try:
                    payload = unmarshal_step(raw, context=ctx)
                except CorruptPayloadError:
                    self.broker.stats.record_corrupt()
                    self.broker.stats.faults.try_resolve(
                        "corrupt_payload", "detected"
                    )
                    with self._lock:
                        self.corrupt_steps += 1
                    continue
                get_telemetry().live.wire_mark("got", payload.step, w, len(raw))
                with self._lock:
                    if payload.attributes.get("has_geometry") == "1":
                        self._geometry.setdefault(w, payload)
                    self._highwater[w] = max(
                        self._highwater.get(w, -1), payload.step
                    )
                    self._assembly.setdefault(payload.step, {})[w] = payload
                    self._complete_assemblies(eid)

    def _complete_assemblies(self, completer: int) -> None:
        """Promote every provably complete assembly to a render task.

        A step is complete when every writer has delivered it, will
        never deliver it (a newer step arrived on its FIFO stream, so
        this one was dropped or corrupted), or has ended its stream.
        Caller holds the lock.
        """
        queued = False
        for step in sorted(self._assembly):
            ready = all(
                w in self._ended or self._highwater.get(w, -1) >= step
                for w in range(self.num_writers)
            )
            if not ready:
                continue
            payloads = self._assembly.pop(step)
            self.assembled.add(step)
            self.queues.push(completer, RenderTask(step=step, payloads=payloads))
            queued = True
        if queued:
            self.broker.notify()      # peers may steal it
