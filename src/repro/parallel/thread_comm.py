"""Threaded SPMD communicator.

Each rank runs in its own thread; all ranks of a group share a
``_World`` object that holds the synchronization state:

- a reusable :class:`threading.Barrier` drives collectives via a
  slot-exchange protocol (write your slot -> barrier -> read all slots
  -> barrier), which is the textbook shared-memory allgather;
- point-to-point messages travel through per-(src, dest, tag) queues
  created lazily under a lock and swept (LRU, empty-only) by the
  barrier action so the mailbox table stays bounded.

Because NumPy releases the GIL for bulk array work, ranks overlap their
compute phases for real, which is what lets instrumented runs measure
realistic contention between solver and in situ phases.

Collectives
-----------
``bcast``/``gather``/``scatter``/``reduce`` run on a **binomial tree**
(log2(N) rounds instead of the O(N)-payload two-barrier allgather) and
``alltoall`` as a **pairwise exchange** (N-1 shifted rounds, each rank
moving only what its peers actually need).  Payloads are passed by
reference between threads, so the trees are zero-copy for NumPy
arrays; ``reduce`` additionally stacks array contributions into
scratch from the rank's host arena (:func:`repro.perf.get_arena`)
before combining.  The allgather-based base-class algorithms in
:class:`repro.parallel.comm.Communicator` remain the reference: under
:func:`repro.perf.naive_mode` every collective routes through them,
which is what the parity suite in ``tests/test_collectives_parity.py``
exploits.

Tree collectives address peers by *virtual rank* ``(rank - root) %
size`` so any root works; a non-root vrank ``v`` has parent
``v - lowbit(v)`` and children ``v + m`` for each power of two
``m < lowbit(v)``.  Internal messages travel through reserved negative
tags (user tags are validated non-negative by ``send``/``recv``
callers by convention) and are *not* metered as sends — each public
collective records its own per-rank ingress bytes (see
:class:`repro.parallel.comm.TrafficMeter`).
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from repro.faults.errors import RankStallError
from repro.observe import get_telemetry
from repro.parallel.comm import (
    Communicator,
    ReduceOp,
    TrafficMeter,
    _combine,
    payload_nbytes,
)
from repro.perf import config as perf_config

#: reserved internal tags for tree-collective hops (distinct per op so
#: overlapping collectives of different kinds can never cross wires;
#: per-(src, dest, tag) FIFO ordering keeps back-to-back collectives of
#: the *same* kind in order)
_TAG_BCAST = -101
_TAG_GATHER = -102
_TAG_SCATTER = -103
_TAG_REDUCE = -104
_TAG_ALLTOALL = -105


class _World:
    """Shared state for one thread-communicator group."""

    #: soft cap on live mailbox queues; crossing it triggers an LRU
    #: sweep of *empty* queues at the next barrier (safe point: every
    #: rank is parked in ``Barrier.wait`` while the action runs)
    mailbox_cap: int = 64

    def __init__(self, size: int, meter: TrafficMeter):
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self.meter = meter
        self.barrier = threading.Barrier(size, action=self._sweep_mailboxes)
        self.slots: list = [None] * size
        self.mailbox_lock = threading.Lock()
        self.mailboxes: dict[tuple[int, int, int], queue.Queue] = {}
        # split() rendezvous: one shared cell per generation
        self.split_lock = threading.Lock()
        self.split_result: dict | None = None

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
        """Barrier action: drop cold empty queues once over the cap.

        Runs in exactly one thread while all `size` ranks are blocked
        inside ``Barrier.wait`` — no rank can be mid-``send``/``recv``
        (they would not have reached the barrier), so removing an empty
        queue cannot lose a message.
        """
        if len(self.mailboxes) <= self.mailbox_cap:
            return
        with self.mailbox_lock:
            for key in list(self.mailboxes):
                if len(self.mailboxes) <= self.mailbox_cap:
                    break
                if self.mailboxes[key].empty():
                    del self.mailboxes[key]


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
        channel: str = "default",
    ) -> list["ThreadCommunicator"]:
        """Create `size` communicator handles sharing one world."""
        world = _World(size, meter or TrafficMeter())
        return [cls(world, r, channel) for r in range(size)]

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
        self._put(obj, dest, tag)

    def recv(self, source: int, tag: int = 0):
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        return self._take(source, tag)

    def _put(self, obj, dest: int, tag: int) -> None:
        """Unmetered internal enqueue (collective hops meter themselves)."""
        self._world.mailbox(self._rank, dest, tag).put(obj)

    def _take(self, source: int, tag: int):
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
        self._wait(self._world.barrier)

    def _wait(self, barrier: threading.Barrier) -> None:
        try:
            barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            raise RankStallError(
                self._rank,
                self.channel,
                self.timeout,
                detail="another rank likely raised, stalled, or deadlocked",
            ) from None

    def _allgather_impl(self, obj) -> list:
        world = self._world
        world.slots[self._rank] = obj
        self._wait(world.barrier)
        result = list(world.slots)
        self._wait(world.barrier)
        return result

    # -- binomial-tree collectives ---------------------------------------
    #
    # vrank = (rank - root) % size maps the tree onto any root.  lowbit
    # of a non-root vrank names its parent (v - lowbit) and bounds its
    # children (v + m, power-of-two m < lowbit); vrank 0 parents every
    # power of two below the next power of two >= size.

    def _tree_geometry(self, root: int) -> tuple[int, int]:
        """(vrank, lowbit) for this rank in the binomial tree at `root`."""
        vrank = (self._rank - root) % self.size
        if vrank == 0:
            peak = 1
            while peak < self.size:
                peak <<= 1
            return 0, peak
        return vrank, vrank & -vrank

    def _bcast_impl(self, obj, root: int):
        if self.size == 1 or not perf_config.enabled():
            return super()._bcast_impl(obj, root)
        size = self.size
        vrank, lowbit = self._tree_geometry(root)
        with get_telemetry().tracer.span("comm.bcast_tree", root=root):
            if vrank:
                obj = self._take((root + vrank - lowbit) % size, _TAG_BCAST)
            m = lowbit >> 1
            while m:
                if vrank + m < size:
                    self._put(obj, (root + vrank + m) % size, _TAG_BCAST)
                m >>= 1
        return obj

    def _gather_refs(self, obj, root: int, tag: int) -> list | None:
        """Binomial gather of raw references, vrank-ordered sublists.

        Child subtrees span contiguous vrank ranges, so extending in
        ascending child order keeps the bundle sorted; the root ends up
        with ``sub[i]`` holding vrank ``i``'s contribution.
        """
        size = self.size
        vrank, lowbit = self._tree_geometry(root)
        sub = [obj]
        m = 1
        while m < lowbit and vrank + m < size:
            sub.extend(self._take((root + vrank + m) % size, tag))
            m <<= 1
        if vrank:
            self._put(sub, (root + vrank - lowbit) % size, tag)
            return None
        return sub

    def _gather_impl(self, obj, root: int) -> list | None:
        if self.size == 1 or not perf_config.enabled():
            return super()._gather_impl(obj, root)
        with get_telemetry().tracer.span("comm.gather_tree", root=root):
            sub = self._gather_refs(obj, root, _TAG_GATHER)
            if sub is None:
                return None
            # rotate from vrank order back to rank order
            return [sub[(r - root) % self.size] for r in range(self.size)]

    def _scatter_impl(self, objs, root: int):
        if self.size == 1 or not perf_config.enabled():
            return super()._scatter_impl(objs, root)
        size = self.size
        vrank, lowbit = self._tree_geometry(root)
        with get_telemetry().tracer.span("comm.scatter_tree", root=root):
            if self._rank == root:
                bundle = [objs[(root + v) % size] for v in range(size)]
            else:
                bundle = self._take((root + vrank - lowbit) % size, _TAG_SCATTER)
            m = lowbit >> 1
            while m:
                if vrank + m < size:
                    self._put(bundle[m:], (root + vrank + m) % size, _TAG_SCATTER)
                    bundle = bundle[:m]
                m >>= 1
        return bundle[0]

    def _reduce_impl(self, value, op: ReduceOp, root: int):
        if self.size == 1 or not perf_config.enabled():
            return super()._reduce_impl(value, op, root)
        with get_telemetry().tracer.span("comm.reduce_tree", root=root):
            sub = self._gather_refs(value, root, _TAG_REDUCE)
            if sub is None:
                return None
            # combine once at the root in *rank* order so the float
            # summation order matches the allgather-based reference
            # bit for bit
            values = [sub[(r - root) % self.size] for r in range(self.size)]
            return self._combine_fast(op, values)

    def _combine_fast(self, op: ReduceOp, values):
        """`_combine`, staging array stacks in arena scratch.

        Mirrors ``np.stack(values).<op>(axis=0)`` exactly (same layout,
        same reduction order) so results stay bitwise identical to the
        reference; only the temporary stack avoids the allocator.
        """
        first = values[0]
        if (
            isinstance(first, np.ndarray)
            and op in (ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX, ReduceOp.PROD)
            and all(
                isinstance(v, np.ndarray)
                and v.shape == first.shape
                and v.dtype == first.dtype
                for v in values[1:]
            )
        ):
            from repro.perf.arena import get_arena

            arena = get_arena()
            with arena.scratch((len(values),) + first.shape, first.dtype) as stk:
                np.stack(values, out=stk)
                if op is ReduceOp.SUM:
                    return stk.sum(axis=0)
                if op is ReduceOp.MIN:
                    return stk.min(axis=0)
                if op is ReduceOp.MAX:
                    return stk.max(axis=0)
                return stk.prod(axis=0)
        return _combine(op, values)

    def _alltoall_impl(self, objs) -> list:
        if self.size == 1 or not perf_config.enabled():
            return super()._alltoall_impl(objs)
        size, rank = self.size, self._rank
        result = [None] * size
        result[rank] = objs[rank]
        with get_telemetry().tracer.span("comm.alltoall_pairwise"):
            for shift in range(1, size):
                dest = (rank + shift) % size
                src = (rank - shift) % size
                self._put(objs[dest], dest, _TAG_ALLTOALL)
                result[src] = self._take(src, _TAG_ALLTOALL)
        return result

    # -- subgroups -----------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "ThreadCommunicator":
        """Collective: partition ranks by color into new thread groups."""
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
        published = self.allgather((color, my_world))
        for c, w in published:
            if c == color and w is not None:
                my_world = w
                break
        assert my_world is not None
        return ThreadCommunicator(my_world, new_rank, self.channel)
