"""Threaded SPMD communicator.

Each rank runs in its own thread; all ranks of a group share a
``_World`` object that holds the synchronization state:

- every collective is **one rendezvous** (:meth:`_World.exchange`):
  under one lock each rank writes its slot and counts itself in, then
  parks on its own pre-acquired lock (a C-level ``acquire``).  The last
  arrival swaps the filled slot buffer for an empty one and releases
  the parked ranks; every rank then copies the filled buffer into a
  list of its own.  The swap is the double buffering that makes a
  second barrier unnecessary: a fast rank's next exchange writes into
  the fresh buffer, never into the one a slow rank is still reading;
- point-to-point messages travel through per-(src, dest, tag) queues
  created lazily under a lock and swept (LRU, empty-only) by the last
  arrival of a rendezvous so the mailbox table stays bounded.

Because NumPy releases the GIL for bulk array work, ranks overlap their
compute phases for real, which is what lets instrumented runs measure
realistic contention between solver and in situ phases.

Collectives
-----------
``exchange`` is the one collective primitive.  ``barrier`` is an
exchange of ``None``; every other collective runs the allgather-based
algorithm of :class:`repro.parallel.comm.Communicator` over it, so each
rank combines the same rank-ordered values and meters its own ingress
(see :class:`repro.parallel.comm.TrafficMeter`).  Payloads pass by
reference.  Per-op binomial trees and a pairwise alltoall over the
mailboxes were measured slower than this single rendezvous
(docs/performance.md) and are not kept.

A rank parked past its ``timeout`` aborts the world and raises
:class:`~repro.faults.errors.RankStallError`.  :meth:`_World.abort`
(``run_spmd`` calls it when a rank raises) wakes every parked rank with
the same error, worded as an abort, and cascades to the worlds
:meth:`ThreadCommunicator.split` created from this one.
"""

from __future__ import annotations

import queue
import threading

from repro.faults.errors import RankStallError
from repro.parallel.comm import Communicator, TrafficMeter, payload_nbytes

_TIMED_OUT = "timed out waiting for the other ranks"
_ABORTED = "the group was aborted because another rank failed"


class _World:
    """Shared state for one thread-communicator group."""

    #: soft cap on live mailbox queues; crossing it triggers an LRU
    #: sweep of *empty* queues at the next rendezvous (safe point: every
    #: other rank is parked while the last arrival runs it)
    mailbox_cap: int = 64

    def __init__(self, size: int, meter: TrafficMeter):
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self.meter = meter
        self.mailbox_lock = threading.Lock()
        self.mailboxes: dict[tuple[int, int, int], queue.Queue] = {}
        # rendezvous state, guarded by _lock
        self._lock = threading.Lock()
        self._slots: list = [None] * size
        self._arrived: list[int] = []  # ranks parked in the open exchange
        self._result: list = []  # filled buffer of the last exchange
        self._generation = 0
        self._aborted = False
        self._children: list[_World] = []  # worlds split from this one
        # one lock per rank, held while it is not parked; parking is an
        # acquire that the last arrival (or an abort) releases
        self._parked = [threading.Lock() for _ in range(size)]
        for lock in self._parked:
            lock.acquire()

    def mailbox(self, src: int, dest: int, tag: int) -> queue.Queue:
        key = (src, dest, tag)
        with self.mailbox_lock:
            q = self.mailboxes.pop(key, None)
            if q is None:
                q = queue.Queue()
            # reinsert at the end: dict order doubles as LRU recency
            self.mailboxes[key] = q
            return q

    def _sweep_mailboxes(self) -> None:
        """Drop cold empty queues once over the cap.

        Runs in the last arrival of a rendezvous while every other rank
        is parked — no rank can be mid-``send``/``recv`` (they would not
        have reached the rendezvous), so removing an empty queue cannot
        lose a message.
        """
        if len(self.mailboxes) <= self.mailbox_cap:
            return
        with self.mailbox_lock:
            for key in list(self.mailboxes):
                if len(self.mailboxes) <= self.mailbox_cap:
                    break
                if self.mailboxes[key].empty():
                    del self.mailboxes[key]

    # -- rendezvous --------------------------------------------------------
    def exchange(self, obj, rank: int, timeout: float, channel: str) -> list:
        """Collective: every rank's `obj` in rank order, as a new list."""
        if self.size == 1:
            return [obj]
        with self._lock:
            if self._aborted:
                raise RankStallError(rank, channel, timeout, detail=_ABORTED)
            self._slots[rank] = obj
            if len(self._arrived) == self.size - 1:
                return list(self._complete())
            self._arrived.append(rank)
            generation = self._generation
        parked = self._parked[rank]
        if not parked.acquire(timeout=timeout):
            with self._lock:
                if self._generation == generation and not self._aborted:
                    self._abort()
                    raise RankStallError(rank, channel, timeout, detail=_TIMED_OUT)
            # a peer completed or aborted the exchange after the timeout
            # fired; its release is in, so this returns at once
            parked.acquire()
        if self._generation == generation:
            raise RankStallError(rank, channel, timeout, detail=_ABORTED)
        return list(self._result)

    def _complete(self) -> list:
        """Close the open exchange (last arrival, `_lock` held)."""
        self._sweep_mailboxes()
        filled, self._slots = self._slots, [None] * self.size
        self._result = filled
        self._generation += 1
        for r in self._arrived:
            self._parked[r].release()
        self._arrived.clear()
        return filled

    def adopt(self, child: "_World") -> None:
        """Abort `child` whenever this world aborts."""
        with self._lock:
            self._children.append(child)

    def abort(self) -> None:
        """Fail every parked and future exchange here and in child worlds."""
        with self._lock:
            self._abort()

    def _abort(self) -> None:
        self._aborted = True
        for r in self._arrived:
            self._parked[r].release()
        self._arrived.clear()
        for child in self._children:
            child.abort()


class ThreadCommunicator(Communicator):
    """One rank's handle onto a threaded SPMD group.

    Construct a full group with :meth:`create_group`; individual
    handles are then passed to per-rank thread bodies (see
    ``repro.parallel.runtime.run_spmd``).
    """

    #: seconds before a blocked recv/collective raises, guarding tests
    #: against deadlock hangs.
    timeout: float = 120.0

    def __init__(self, world: _World, rank: int, channel: str = "default"):
        if not 0 <= rank < world.size:
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self._rank = rank
        self.channel = channel

    # -- construction ----------------------------------------------------
    @classmethod
    def create_group(
        cls,
        size: int,
        meter: TrafficMeter | None = None,
    ) -> list["ThreadCommunicator"]:
        """Create `size` communicator handles sharing one world."""
        world = _World(size, meter or TrafficMeter())
        return [cls(world, r) for r in range(size)]

    # -- basics ----------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._world.size

    @property
    def meter(self) -> TrafficMeter:
        return self._world.meter

    # -- point to point ----------------------------------------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        if dest == self._rank:
            raise ValueError("send to self would deadlock a blocking recv pair")
        self.meter.record(
            "send", payload_nbytes(obj), self.size, self.channel, rank=self._rank
        )
        self._world.mailbox(self._rank, dest, tag).put(obj)

    def recv(self, source: int, tag: int = 0):
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        try:
            return self._world.mailbox(source, self._rank, tag).get(
                timeout=self.timeout
            )
        except queue.Empty:
            raise TimeoutError(
                f"rank {self._rank} timed out receiving from {source} tag {tag}"
            ) from None

    def sendrecv(self, obj, dest: int, source: int, tag: int = 0):
        """Exchange with two peers without deadlock (send is non-blocking)."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # -- collectives -------------------------------------------------------
    def barrier(self) -> None:
        self._world.exchange(None, self._rank, self.timeout, self.channel)

    def _allgather_impl(self, obj) -> list:
        return self._world.exchange(obj, self._rank, self.timeout, self.channel)

    # -- subgroups -----------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "ThreadCommunicator":
        """Collective: partition ranks by color into new thread groups.

        Subgroups keep this handle's ``timeout`` and are aborted with
        this group.
        """
        entries = self.allgather((color, self._rank if key is None else key, self._rank))
        # Build group membership deterministically on every rank.
        groups: dict[int, list[tuple[int, int]]] = {}
        for c, k, r in entries:
            groups.setdefault(c, []).append((k, r))
        members = [r for _, r in sorted(groups[color])]
        new_rank = members.index(self._rank)
        # The lowest old rank of each group creates the shared world and
        # publishes it through the parent world's slot exchange.
        my_world = None
        if new_rank == 0:
            my_world = _World(len(members), self.meter)
            self._world.adopt(my_world)
        published = self.allgather((color, my_world))
        for c, w in published:
            if c == color and w is not None:
                my_world = w
                break
        assert my_world is not None
        sub = ThreadCommunicator(my_world, new_rank, self.channel)
        sub.timeout = self.timeout
        return sub
