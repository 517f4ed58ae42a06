"""Collective-semantics parity and metering regression tests.

Every collective of ``ThreadCommunicator`` must equal its definition
bit for bit — ``allgather`` is the payload list, ``reduce`` and
``allreduce`` are a rank-order fold (which fixes the float summation
order), and so on — for every payload shape the codebase sends:
scalars, ragged lists, float64 and bool arrays, at group sizes both
power-of-two and ragged.  Metered traffic is per-rank ingress whatever
the algorithm.
"""

import functools
import operator

import numpy as np
import pytest

from repro.parallel import ReduceOp, run_spmd
from repro.parallel.comm import SerialCommunicator, TrafficMeter
from repro.parallel.thread_comm import _World
from repro.perf import naive_mode
from test_parallel_comm import per_rank_bytes

SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 9]
KINDS = ["scalar", "ragged", "float64", "bool"]


def _payload(kind, seed):
    """Deterministic payload for rank/slot `seed`."""
    if kind == "scalar":
        return seed * 3 + 1
    if kind == "ragged":
        return list(range(seed % 4 + 1))
    if kind == "float64":
        # irrational-ish values so float summation order matters
        return (np.arange(6, dtype=np.float64).reshape(2, 3) + 1) * (seed + 1) / 7.0
    if kind == "bool":
        return np.arange(8) % (seed + 2) == 0
    raise AssertionError(kind)


def _exercise(comm, kind):
    """Run every collective once; return all results."""
    size, rank, root = comm.size, comm.rank, comm.size // 2
    out = {
        "allgather": comm.allgather(_payload(kind, rank)),
        "bcast": comm.bcast(_payload(kind, 7) if rank == root else None, root),
        "gather": comm.gather(_payload(kind, rank), root),
        "scatter": comm.scatter(
            [_payload(kind, d + 1) for d in range(size)] if rank == root else None,
            root,
        ),
        "alltoall": comm.alltoall(
            [_payload(kind, rank + d) for d in range(size)]
        ),
    }
    if kind in ("scalar", "float64"):
        out["reduce_sum"] = comm.reduce(_payload(kind, rank), ReduceOp.SUM, root)
        out["reduce_min"] = comm.reduce(_payload(kind, rank), ReduceOp.MIN, root)
        out["allreduce_sum"] = comm.allreduce(_payload(kind, rank), ReduceOp.SUM)
        out["allreduce_max"] = comm.allreduce(_payload(kind, rank), ReduceOp.MAX)
    if kind == "bool":
        out["reduce_lor"] = comm.reduce(_payload(kind, rank), ReduceOp.LOR, root)
        out["allreduce_land"] = comm.allreduce(_payload(kind, rank), ReduceOp.LAND)
    return out


#: each op as a pairwise step, folded over ranks 0, 1, ..., size-1
_FOLD = {
    "sum": operator.add,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "lor": np.logical_or,
    "land": np.logical_and,
}


def _definitions(kind, size, rank):
    """What `_exercise` must return on `rank`, from first principles."""
    root = size // 2
    mine = [_payload(kind, r) for r in range(size)]

    def fold(op):
        return functools.reduce(_FOLD[op], mine)

    out = {
        "allgather": mine,
        "bcast": _payload(kind, 7),
        "gather": mine if rank == root else None,
        "scatter": _payload(kind, rank + 1),
        "alltoall": [_payload(kind, src + rank) for src in range(size)],
    }
    if kind in ("scalar", "float64"):
        out["reduce_sum"] = fold("sum") if rank == root else None
        out["reduce_min"] = fold("min") if rank == root else None
        out["allreduce_sum"] = fold("sum")
        out["allreduce_max"] = fold("max")
    if kind == "bool":
        out["reduce_lor"] = fold("lor") if rank == root else None
        out["allreduce_land"] = fold("land")
    return out


def _assert_same(a, b, path=""):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), path
        assert a.dtype == b.dtype, f"{path}: {a.dtype} != {b.dtype}"
        assert a.shape == b.shape, path
        np.testing.assert_array_equal(a, b, err_msg=path)
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_same(a[k], b[k], f"{path}.{k}")
    else:
        assert type(a) is type(b) and a == b, f"{path}: {a!r} != {b!r}"


class TestTreeReferenceParity:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_tree_matches_reference(self, size, kind):
        """Every collective == its definition, bit for bit."""
        results = run_spmd(size, lambda c: _exercise(c, kind))
        for rank, got in enumerate(results):
            _assert_same(got, _definitions(kind, size, rank), f"rank{rank}")

    @pytest.mark.parametrize("kind", KINDS)
    def test_serial_matches_single_rank_group(self, kind):
        serial = _exercise(SerialCommunicator(), kind)
        threaded = run_spmd(1, lambda c: _exercise(c, kind))[0]
        _assert_same(serial, threaded, "size1")

    @pytest.mark.parametrize("size", [3, 4, 7, 8])
    def test_every_root(self, size):
        """Rooted collectives work for any root, not just rank 0."""

        def body(comm):
            out = []
            for root in range(comm.size):
                out.append((
                    comm.bcast(comm.rank if comm.rank == root else None, root),
                    comm.gather(comm.rank * 2, root),
                    comm.scatter(
                        list(range(100, 100 + comm.size))
                        if comm.rank == root else None,
                        root,
                    ),
                    comm.reduce(comm.rank + 1, ReduceOp.SUM, root),
                ))
            return out

        for rank, res in enumerate(run_spmd(size, body)):
            for root, (b, g, s, r) in enumerate(res):
                assert b == root
                assert g == ([2 * x for x in range(size)] if rank == root else None)
                assert s == 100 + rank
                assert r == (size * (size + 1) // 2 if rank == root else None)


class TestRendezvous:
    """Back-to-back exchanges reuse the world's state without a barrier."""

    @pytest.mark.parametrize("size", [2, 3, 8])
    def test_back_to_back_collectives_without_barriers(self, size):
        rounds = 500

        def body(comm):
            bad = []
            for i in range(rounds):
                if i % 3 == 0:
                    got = comm.allreduce(comm.rank + i)
                    want = size * i + size * (size - 1) // 2
                elif i % 3 == 1:
                    got = comm.allgather((comm.rank, i))
                    want = [(r, i) for r in range(size)]
                else:
                    root = i % size
                    got = comm.bcast((root, i) if comm.rank == root else None, root)
                    want = (root, i)
                if got != want:
                    bad.append((i, got, want))
            return bad

        assert run_spmd(size, body) == [[]] * size

    @pytest.mark.parametrize("size", [3, 8])
    def test_mutating_a_returned_list_leaves_peers_intact(self, size):
        def body(comm):
            bad = []
            for i in range(50):
                values = comm.allgather((comm.rank, i))
                if comm.rank == 0:
                    values.clear()
                    values.append("mutated")
                comm.barrier()  # rank 0's mutation is done before anyone checks
                if comm.rank != 0 and values != [(r, i) for r in range(size)]:
                    bad.append((i, values))
            return bad

        assert run_spmd(size, body) == [[]] * size


class TestMeteringRegression:
    """Satellite: collectives meter per-rank ingress on *every* rank.

    The old accounting metered derived collectives as a full allgather
    and recorded allgather only once — the hot-spot rank was invisible.
    """

    ARR = np.arange(10, dtype=np.float64)  # 80 bytes

    def _events(self, size, body):
        meter = TrafficMeter()
        run_spmd(size, body, meter=meter)
        return meter

    def test_bcast_records_on_every_rank(self):
        meter = self._events(4, lambda c: c.bcast(self.ARR if c.rank == 0 else None))
        assert meter.count("bcast") == 4
        assert per_rank_bytes(meter, "bcast") == {0: 0, 1: 80, 2: 80, 3: 80}

    def test_gather_attributes_ingress_to_root(self):
        meter = self._events(4, lambda c: c.gather(self.ARR, root=2))
        assert meter.count("gather") == 4
        assert per_rank_bytes(meter, "gather") == {0: 0, 1: 0, 2: 240, 3: 0}

    def test_allgather_records_on_every_rank(self):
        meter = self._events(3, lambda c: c.allgather(self.ARR))
        assert meter.count("allgather") == 3
        assert per_rank_bytes(meter, "allgather") == {0: 160, 1: 160, 2: 160}

    def test_scatter_and_alltoall_ingress(self):
        def body(c):
            c.scatter([self.ARR] * c.size if c.rank == 0 else None)
            c.alltoall([self.ARR for _ in range(c.size)])

        meter = self._events(3, body)
        assert per_rank_bytes(meter, "scatter") == {0: 0, 1: 80, 2: 80}
        assert per_rank_bytes(meter, "alltoall") == {0: 160, 1: 160, 2: 160}

    def test_reduce_and_allreduce_ingress(self):
        def body(c):
            c.reduce(self.ARR, ReduceOp.SUM, root=1)
            c.allreduce(self.ARR, ReduceOp.SUM)

        meter = self._events(3, body)
        assert per_rank_bytes(meter, "reduce") == {0: 0, 1: 160, 2: 0}
        assert per_rank_bytes(meter, "allreduce") == {0: 160, 1: 160, 2: 160}

    def test_tree_and_reference_meter_identically(self):
        """Ingress accounting is implementation-independent."""

        def traffic(comm):
            comm.bcast(self.ARR if comm.rank == 0 else None)
            comm.gather(self.ARR)
            comm.scatter([self.ARR] * comm.size if comm.rank == 0 else None)
            comm.alltoall([self.ARR for _ in range(comm.size)])
            comm.reduce(self.ARR)

        def naive_body(comm):
            with naive_mode():
                traffic(comm)

        opt, ref = TrafficMeter(), TrafficMeter()
        run_spmd(6, traffic, meter=opt)
        run_spmd(6, naive_body, meter=ref)
        for op in ("bcast", "gather", "scatter", "alltoall", "reduce"):
            assert per_rank_bytes(opt, op) == per_rank_bytes(ref, op), op

    def test_size_one_records_nothing(self):
        meter = self._events(1, lambda c: (c.bcast(self.ARR), None)[1])
        assert meter.count() == 0


class TestMailboxBound:
    """Satellite: the per-(src, dest, tag) mailbox table stays bounded."""

    def test_sweep_drops_cold_empty_queues(self):
        def body(comm):
            if comm.rank == 0:
                comm._world.mailbox_cap = 8
            comm.barrier()
            for tag in range(50):  # 50 distinct drained queues
                if comm.rank == 0:
                    comm.send(tag, 1, tag=tag)
                elif comm.rank == 1:
                    assert comm.recv(0, tag=tag) == tag
            comm.barrier()  # sweep runs here
            return len(comm._world.mailboxes)

        for n in run_spmd(2, body):
            assert n <= 8

    def test_sweep_never_drops_pending_messages(self):
        def body(comm):
            if comm.rank == 0:
                comm._world.mailbox_cap = 4
            comm.barrier()
            if comm.rank == 0:
                for tag in range(20):
                    comm.send(tag * 11, 1, tag=tag)
            comm.barrier()  # over cap, but every queue holds a message
            if comm.rank == 1:
                return [comm.recv(0, tag=tag) for tag in range(20)]
            return None

        results = run_spmd(2, body)
        assert results[1] == [tag * 11 for tag in range(20)]

    def test_default_cap_is_conservative(self):
        assert _World.mailbox_cap >= 16
