"""Fleet membership: heartbeat leases.

A heartbeat renews the member's lease in place, under the table's own
lock; any caller of :meth:`FleetMembership.expire` declares members
whose lease has lapsed **dead**.  Detection is folded into whoever
polls next, so an *unplanned* loss (a crashed endpoint thread simply
stops heartbeating) surfaces without any dedicated monitor thread.

States: ``ACTIVE`` (owns streams, processes work), ``LEFT`` (planned
departure), ``DEAD`` (lease expired, or the member reported its own
failure).  A member registers active and then only leaves or dies;
nothing re-activates it, and a heartbeat renews only an active lease.
Every transition bumps the membership ``epoch``.
"""

from __future__ import annotations

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
        self._epoch = 0

    # -- registration ------------------------------------------------------
    def register(self, eid: int) -> int:
        """Add an active member (idempotent); returns the new epoch."""
        with self._lock:
            if eid not in self._state:
                self._state[eid] = EndpointState.ACTIVE
                self._lease[eid] = self.clock() + self.lease_timeout
                self._epoch += 1
            return self._epoch

    # -- liveness ----------------------------------------------------------
    def heartbeat(self, eid: int) -> None:
        """Renew `eid`'s lease; a member that left or died stays so."""
        with self._lock:
            state = self._state.get(eid)
            if state is None:
                raise KeyError(f"endpoint {eid} is not a member")
            if state is EndpointState.ACTIVE:
                self._lease[eid] = self.clock() + self.lease_timeout

    def expire(self) -> list[int]:
        """Return (and mark dead) members whose lease has lapsed."""
        now = self.clock()
        dead: list[int] = []
        with self._lock:
            for eid, state in self._state.items():
                if state is EndpointState.ACTIVE and self._lease[eid] < now:
                    self._state[eid] = EndpointState.DEAD
                    self._epoch += 1
                    dead.append(eid)
        return dead

    def next_expiry(self) -> float | None:
        """When the next :meth:`expire` could report a death: the
        earliest lease of an ACTIVE member (None when none is active)."""
        with self._lock:
            return min(
                (self._lease[e] for e, s in self._state.items()
                 if s is EndpointState.ACTIVE),
                default=None,
            )

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
