"""Communicator interface, reduce operations, and traffic metering.

The interface follows mpi4py conventions loosely: lowercase methods
exchange arbitrary Python objects (NumPy arrays are passed by
reference between ranks since everything lives in one address space —
receivers must treat them as read-only or copy).  A few array-aware
helpers (`allreduce_array`) avoid per-call object overhead in solver
hot loops.
"""

from __future__ import annotations

import abc
import enum
import pickle
import threading
from dataclasses import dataclass, field

import numpy as np


class ReduceOp(enum.Enum):
    """Reduction operators supported by reduce/allreduce."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"
    PROD = "prod"
    LAND = "land"
    LOR = "lor"


def _combine(op: ReduceOp, values):
    """Combine a list of values (scalars or same-shape arrays)."""
    if not values:
        raise ValueError("cannot reduce zero values")
    first = values[0]
    if isinstance(first, np.ndarray):
        if (
            op is ReduceOp.SUM and first.dtype.kind in "fc" and first.size > 1
            and all(v.dtype == first.dtype and v.shape == first.shape
                    for v in values)
        ):
            # stack(...).sum(axis=0) adds rank by rank from +0.0, and so
            # does this, without the stacked copy.  A one-element sum
            # reduces pairwise, and a bool / int sum upcasts: those, and
            # mixed dtypes or shapes, take the stack
            out = first + 0.0
            for v in values[1:]:
                np.add(out, v, out=out)
            return out
        stack = np.stack(values)
        if op is ReduceOp.SUM:
            return stack.sum(axis=0)
        if op is ReduceOp.MIN:
            return stack.min(axis=0)
        if op is ReduceOp.MAX:
            return stack.max(axis=0)
        if op is ReduceOp.PROD:
            return stack.prod(axis=0)
        if op is ReduceOp.LAND:
            return np.logical_and.reduce(stack, axis=0)
        if op is ReduceOp.LOR:
            return np.logical_or.reduce(stack, axis=0)
    else:
        if op is ReduceOp.SUM:
            return sum(values)
        if op is ReduceOp.MIN:
            return min(values)
        if op is ReduceOp.MAX:
            return max(values)
        if op is ReduceOp.PROD:
            out = values[0]
            for v in values[1:]:
                out = out * v
            return out
        if op is ReduceOp.LAND:
            return all(values)
        if op is ReduceOp.LOR:
            return any(values)
    raise ValueError(f"unsupported reduce op {op}")


#: every plain ``float`` pickles to the same 21 B, whatever its value
#: (an ``np.float64`` or a subclass pickles longer)
_FLOAT_PICKLE_NBYTES = len(pickle.dumps(0.0, protocol=pickle.HIGHEST_PROTOCOL))


def payload_nbytes(obj) -> int:
    """Estimate the wire size of a payload.

    NumPy arrays report their buffer size; other objects are sized by
    their pickle, matching what an MPI pickle-based send would move.
    """
    if obj is None:
        return 0
    if type(obj) is float:
        return _FLOAT_PICKLE_NBYTES
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(x, np.ndarray) for x in obj
    ):
        return sum(x.nbytes for x in obj)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


@dataclass
class TrafficMeter:
    """Thread-safe accumulator of communication traffic.

    The meter records *logical* payloads (what the application handed
    to the communicator); the machine model turns these into modeled
    wire time using per-operation cost formulas.  It keeps one count
    and one byte total per (op, channel, rank), not one entry per call,
    so a long run costs a handful of entries rather than memory that
    grows with every collective.

    Attribution convention: point-to-point ``send`` events carry the
    *sender's* rank and egress bytes; collective events are recorded by
    **every participating rank** with the bytes that rank *receives*
    (ingress).  Ingress accounting is implementation-independent — a
    binomial-tree gather delivers the same logical bytes to the root as
    a flat one — so the metered bytes do not depend on the collective
    algorithm, and the largest ``per_rank_bytes`` entry is the hot-spot
    rank (e.g. the root of a gather-to-root rendering pipeline).
    """

    #: (op, channel, rank) -> [calls, bytes]
    _totals: dict[tuple[str, str, int], list[int]] = field(
        default_factory=dict, repr=False, init=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, init=False
    )

    def record(
        self,
        op: str,
        nbytes: int,
        size: int,
        channel: str = "default",
        rank: int = -1,
    ) -> None:
        """Count one operation of `nbytes` on a `size`-rank communicator."""
        with self._lock:
            total = self._totals.setdefault((op, channel, rank), [0, 0])
            total[0] += 1
            total[1] += nbytes

    def _matching(self, op: str | None = None):
        """Snapshot of ``((op, channel, rank), (calls, bytes))`` entries,
        all of them or those of one op."""
        with self._lock:
            return [
                (key, tuple(total)) for key, total in self._totals.items()
                if op is None or key[0] == op
            ]

    def total_bytes(self) -> int:
        return sum(total[1] for _, total in self._matching())

    def count(self, op: str | None = None) -> int:
        return sum(total[0] for _, total in self._matching(op))

    def per_rank_bytes(self) -> dict[int, int]:
        """Bytes attributed to each rank."""
        out: dict[int, int] = {}
        for (_, _, rank), total in self._matching():
            out[rank] = out.get(rank, 0) + total[1]
        return out

    def clear(self) -> None:
        with self._lock:
            self._totals.clear()


class Communicator(abc.ABC):
    """MPI-like communicator over an in-process rank group."""

    #: label applied to recorded traffic; callers may retarget it
    channel: str = "default"

    @property
    @abc.abstractmethod
    def rank(self) -> int:
        """This rank's index in [0, size)."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of ranks in the group."""

    @property
    @abc.abstractmethod
    def meter(self) -> TrafficMeter:
        """Traffic meter shared by the group."""

    # -- point to point ------------------------------------------------
    @abc.abstractmethod
    def send(self, obj, dest: int, tag: int = 0) -> None: ...

    @abc.abstractmethod
    def recv(self, source: int, tag: int = 0): ...

    # -- collectives ---------------------------------------------------
    #
    # The public methods validate, dispatch to an ``_*_impl`` hook, and
    # meter ingress bytes per rank (see TrafficMeter).  The impls below
    # route everything through ``_allgather_impl``, so a communicator
    # provides one primitive and every rank combines the same
    # rank-ordered values.

    @abc.abstractmethod
    def barrier(self) -> None: ...

    @abc.abstractmethod
    def _allgather_impl(self, obj) -> list:
        """Unmetered allgather primitive; public wrappers meter it."""

    def _record(self, op: str, nbytes: int) -> None:
        if self.size > 1:
            self.meter.record(op, nbytes, self.size, self.channel, rank=self.rank)

    def allgather(self, obj) -> list:
        values = self._allgather_impl(obj)
        self._record("allgather", sum(
            payload_nbytes(v) for i, v in enumerate(values) if i != self.rank
        ))
        return values

    def bcast(self, obj, root: int = 0):
        out = self._bcast_impl(obj, root)
        self._record("bcast", 0 if self.rank == root else payload_nbytes(out))
        return out

    def _bcast_impl(self, obj, root: int):
        return self._allgather_impl(obj if self.rank == root else None)[root]

    def gather(self, obj, root: int = 0) -> list | None:
        nbytes = payload_nbytes(obj)
        values = self._gather_impl(obj, root)
        if self.rank == root:
            self._record("gather", sum(payload_nbytes(v) for v in values) - nbytes)
        else:
            self._record("gather", 0)
        return values

    def _gather_impl(self, obj, root: int) -> list | None:
        values = self._allgather_impl(obj)
        return values if self.rank == root else None

    def scatter(self, objs, root: int = 0):
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("scatter needs one object per rank at the root")
        out = self._scatter_impl(objs, root)
        self._record("scatter", 0 if self.rank == root else payload_nbytes(out))
        return out

    def _scatter_impl(self, objs, root: int):
        values = self._allgather_impl(objs if self.rank == root else None)
        return values[root][self.rank]

    def alltoall(self, objs) -> list:
        """Each rank provides a list of `size` objects; returns column `rank`."""
        if len(objs) != self.size:
            raise ValueError("alltoall needs one object per destination rank")
        result = self._alltoall_impl(objs)
        self._record("alltoall", sum(
            payload_nbytes(v) for i, v in enumerate(result) if i != self.rank
        ))
        return result

    def _alltoall_impl(self, objs) -> list:
        matrix = self._allgather_impl(objs)
        return [row[self.rank] for row in matrix]

    def reduce(self, value, op: ReduceOp = ReduceOp.SUM, root: int = 0):
        nbytes = payload_nbytes(value)
        out = self._reduce_impl(value, op, root)
        if self.rank == root:
            # the reduction logically moves every other contribution here
            self._record("reduce", nbytes * (self.size - 1))
        else:
            self._record("reduce", 0)
        return out

    def _reduce_impl(self, value, op: ReduceOp, root: int):
        values = self._allgather_impl(value)
        return _combine(op, values) if self.rank == root else None

    def allreduce(self, value, op: ReduceOp = ReduceOp.SUM):
        out = _combine(op, self._allgather_impl(value))
        self._record("allreduce", payload_nbytes(value) * (self.size - 1))
        return out

    def allreduce_array(self, array: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        """Elementwise allreduce of a NumPy array."""
        return self.allreduce(np.asarray(array), op)

    # -- subgroups -----------------------------------------------------
    @abc.abstractmethod
    def split(self, color: int, key: int | None = None) -> "Communicator":
        """Partition the group into subcommunicators by *color*.

        Ranks with equal color land in the same subgroup, ordered by
        (*key*, rank).  Mirrors ``MPI_Comm_split``.
        """

    # -- convenience ---------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.rank == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} rank={self.rank} size={self.size}>"


class SerialCommunicator(Communicator):
    """Single-rank communicator; collectives are identities."""

    def __init__(self, meter: TrafficMeter | None = None, channel: str = "default"):
        self._meter = meter or TrafficMeter()
        self.channel = channel

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1

    @property
    def meter(self) -> TrafficMeter:
        return self._meter

    def send(self, obj, dest: int, tag: int = 0) -> None:
        raise RuntimeError("send on a single-rank communicator (no peers)")

    def recv(self, source: int, tag: int = 0):
        raise RuntimeError("recv on a single-rank communicator (no peers)")

    def barrier(self) -> None:
        return None

    def _allgather_impl(self, obj) -> list:
        return [obj]

    def split(self, color: int, key: int | None = None) -> "SerialCommunicator":
        return SerialCommunicator(self._meter, self.channel)
