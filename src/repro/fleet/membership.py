"""Fleet membership: heartbeat leases over mailbox queues.

Endpoints announce liveness by posting heartbeats into a per-endpoint
mailbox (the same bounded-queue shape the ``ThreadCommunicator``
mailboxes use); any caller of :meth:`FleetMembership.expire` drains
the mailboxes, renews the corresponding leases, and declares members
whose lease has lapsed **dead**.  That split — cheap enqueue on the
hot endpoint loop, detection folded into whoever polls next — is what
lets an *unplanned* loss (a crashed endpoint thread simply stops
heartbeating) surface without any dedicated monitor thread.

States: ``ACTIVE`` (owns streams, processes work), ``LEFT`` (planned
departure), ``DEAD`` (lease expired, or the member reported its own
failure).  A member registers active and then only leaves or dies;
nothing re-activates it.  Every transition bumps the membership ``epoch``; the
coordinator rebalances when it observes an epoch it has not seen.
"""

from __future__ import annotations

import queue
import threading
import time
from enum import Enum


class EndpointState(Enum):
    ACTIVE = "active"
    LEFT = "left"
    DEAD = "dead"


class FleetMembership:
    """Thread-safe membership table with heartbeat leases."""

    def __init__(self, lease_timeout: float = 0.25, clock=time.monotonic):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        self.lease_timeout = lease_timeout
        self.clock = clock
        self._lock = threading.Lock()
        self._state: dict[int, EndpointState] = {}
        self._lease: dict[int, float] = {}
        self._mailbox: dict[int, queue.Queue] = {}
        self._epoch = 0

    # -- registration ------------------------------------------------------
    def register(self, eid: int) -> int:
        """Add an active member (idempotent); returns the new epoch."""
        with self._lock:
            if eid not in self._state:
                self._state[eid] = EndpointState.ACTIVE
                self._lease[eid] = self.clock() + self.lease_timeout
                self._mailbox[eid] = queue.Queue()
                self._epoch += 1
            return self._epoch

    # -- liveness ----------------------------------------------------------
    def heartbeat(self, eid: int) -> None:
        """Post a heartbeat into `eid`'s mailbox (non-blocking)."""
        mailbox = self._mailbox.get(eid)
        if mailbox is None:
            raise KeyError(f"endpoint {eid} is not a member")
        mailbox.put((eid, self.clock()))

    def expire(self, now: float | None = None) -> list[int]:
        """Drain heartbeat mailboxes, then return newly dead members."""
        now = self.clock() if now is None else now
        dead: list[int] = []
        with self._lock:
            self._drain_heartbeats()
            for eid, state in self._state.items():
                if state is EndpointState.ACTIVE and self._lease[eid] < now:
                    self._state[eid] = EndpointState.DEAD
                    self._epoch += 1
                    dead.append(eid)
        return dead

    def next_expiry(self) -> float | None:
        """When the next :meth:`expire` could report a death: the
        earliest lease of an ACTIVE member, heartbeats folded in first
        (None when no member is active)."""
        with self._lock:
            self._drain_heartbeats()
            return min(
                (self._lease[e] for e, s in self._state.items()
                 if s is EndpointState.ACTIVE),
                default=None,
            )

    def _drain_heartbeats(self) -> None:
        """Fold posted heartbeats into the leases of live members.
        Caller holds the lock."""
        for eid, mailbox in self._mailbox.items():
            latest = None
            while True:
                try:
                    _, stamp = mailbox.get_nowait()
                except queue.Empty:
                    break
                latest = stamp
            if latest is not None and self._state[eid] is EndpointState.ACTIVE:
                self._lease[eid] = latest + self.lease_timeout

    def fail(self, eid: int) -> bool:
        """Declare `eid` dead now (it reported its own failure);
        returns False when it was not a live member."""
        with self._lock:
            if self._state.get(eid) is not EndpointState.ACTIVE:
                return False
            self._state[eid] = EndpointState.DEAD
            self._epoch += 1
            return True

    # -- planned departure ------------------------------------------------
    def leave(self, eid: int) -> None:
        """Planned departure (end of run)."""
        with self._lock:
            if self._state.get(eid) is EndpointState.ACTIVE:
                self._state[eid] = EndpointState.LEFT
                self._epoch += 1

    # -- views -------------------------------------------------------------
    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def state(self, eid: int) -> EndpointState | None:
        with self._lock:
            return self._state.get(eid)

    def active_ids(self) -> tuple[int, ...]:
        return self._ids(EndpointState.ACTIVE)

    def dead_ids(self) -> tuple[int, ...]:
        return self._ids(EndpointState.DEAD)

    def _ids(self, state: EndpointState) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(e for e, s in self._state.items() if s is state))
