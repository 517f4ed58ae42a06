"""Tests for the threaded SPMD communicator and runtime."""

import numpy as np
import pytest

from repro.faults.errors import RankStallError
from repro.parallel import ReduceOp, ThreadCommunicator, run_spmd
from repro.parallel.comm import TrafficMeter


class TestCollectives:
    def test_allgather(self):
        results = run_spmd(4, lambda c: c.allgather(c.rank))
        assert all(r == [0, 1, 2, 3] for r in results)

    def test_allreduce_sum(self):
        results = run_spmd(5, lambda c: c.allreduce(c.rank + 1))
        assert all(r == 15 for r in results)

    def test_allreduce_ops(self):
        def body(c):
            return (
                c.allreduce(c.rank, ReduceOp.MIN),
                c.allreduce(c.rank, ReduceOp.MAX),
                c.allreduce(c.rank + 1, ReduceOp.PROD),
            )

        results = run_spmd(3, body)
        assert all(r == (0, 2, 6) for r in results)

    def test_allreduce_array(self):
        def body(c):
            return c.allreduce_array(np.full(3, float(c.rank)))

        for r in run_spmd(4, body):
            np.testing.assert_array_equal(r, [6.0, 6.0, 6.0])

    def test_bcast(self):
        results = run_spmd(3, lambda c: c.bcast("hello" if c.rank == 0 else None))
        assert results == ["hello"] * 3

    def test_bcast_nonzero_root(self):
        results = run_spmd(3, lambda c: c.bcast(c.rank * 10, root=2))
        assert results == [20, 20, 20]

    def test_gather(self):
        results = run_spmd(3, lambda c: c.gather(c.rank**2))
        assert results[0] == [0, 1, 4]
        assert results[1] is None and results[2] is None

    def test_scatter(self):
        def body(c):
            data = [x * 10 for x in range(c.size)] if c.rank == 0 else None
            return c.scatter(data)

        assert run_spmd(4, body) == [0, 10, 20, 30]

    def test_alltoall(self):
        def body(c):
            return c.alltoall([(c.rank, dest) for dest in range(c.size)])

        results = run_spmd(3, body)
        for r, row in enumerate(results):
            assert row == [(src, r) for src in range(3)]

    def test_reduce_root_only(self):
        results = run_spmd(4, lambda c: c.reduce(1))
        assert results[0] == 4
        assert results[1:] == [None, None, None]

    def test_barrier_runs(self):
        run_spmd(4, lambda c: c.barrier())

    def test_repeated_collectives_stay_consistent(self):
        def body(c):
            out = []
            for i in range(20):
                out.append(c.allreduce(c.rank + i))
            return out

        results = run_spmd(3, body)
        expected = [sum(r + i for r in range(3)) for i in range(20)]
        assert all(r == expected for r in results)


class TestPointToPoint:
    def test_ring_exchange(self):
        def body(c):
            dest = (c.rank + 1) % c.size
            src = (c.rank - 1) % c.size
            return c.sendrecv(c.rank, dest, src)

        assert run_spmd(4, body) == [3, 0, 1, 2]

    def test_tags_keep_messages_separate(self):
        def body(c):
            if c.rank == 0:
                c.send("a", 1, tag=1)
                c.send("b", 1, tag=2)
                return None
            if c.rank == 1:
                # receive in the opposite order
                b = c.recv(0, tag=2)
                a = c.recv(0, tag=1)
                return (a, b)
            return None

        assert run_spmd(2, body)[1] == ("a", "b")

    def test_send_to_self_raises(self):
        def body(c):
            if c.rank == 0:
                with pytest.raises(ValueError):
                    c.send(1, 0)
            return True

        assert all(run_spmd(2, body))

    def test_send_out_of_range_raises(self):
        def body(c):
            with pytest.raises(ValueError):
                c.send(1, c.size + 3)
            return True

        assert all(run_spmd(2, body))


class TestSplit:
    def test_split_even_odd(self):
        def body(c):
            sub = c.split(c.rank % 2)
            return (sub.size, sub.rank, sub.allreduce(c.rank))

        results = run_spmd(6, body)
        for r, (size, subrank, total) in enumerate(results):
            assert size == 3
            assert total == (6 if r % 2 == 0 else 9)
            assert subrank == r // 2

    def test_split_single_color(self):
        def body(c):
            sub = c.split(0)
            return (sub.size, sub.allreduce(1))

        assert run_spmd(4, body) == [(4, 4)] * 4

    def test_split_with_key_reverses_order(self):
        def body(c):
            sub = c.split(0, key=-c.rank)
            return sub.rank

        assert run_spmd(3, body) == [2, 1, 0]

    def test_nested_split(self):
        def body(c):
            sub = c.split(c.rank // 2)
            subsub = sub.split(sub.rank % 2)
            return subsub.size

        assert run_spmd(4, body) == [1, 1, 1, 1]

    def test_split_keeps_the_timeout(self):
        def body(c):
            sub = c.split(c.rank % 2)
            return (sub.timeout, sub.split(0).timeout)

        assert run_spmd(4, body, timeout=3) == [(3, 3)] * 4


class TestRuntime:
    def test_exception_propagates(self):
        def body(c):
            if c.rank == 1:
                raise RuntimeError("rank 1 exploded")
            c.barrier()  # would deadlock if abort didn't break the barrier
            return True

        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            run_spmd(3, body)

    def test_failure_aborts_split_subgroups(self):
        """A peer parked in a subgroup collective fails by abort, not by
        waiting out its timeout (the conftest watchdog catches a hang)."""
        stalls = []

        def body(c):
            sub = c.split(0 if c.rank == 0 else 1)
            if c.rank == 0:
                raise RuntimeError("rank 0 exploded")
            if c.rank == 1:  # rank 2 never joins this allreduce
                try:
                    sub.allreduce(1)
                except RankStallError as exc:
                    stalls.append(str(exc))
                    raise
            return True

        with pytest.raises(RuntimeError, match="rank 0 exploded"):
            run_spmd(3, body)
        assert len(stalls) == 1
        assert "aborted" in stalls[0] and "timed out" not in stalls[0]

    def test_single_rank_is_serial(self):
        from repro.parallel import SerialCommunicator

        results = run_spmd(1, lambda c: type(c).__name__)
        assert results == ["SerialCommunicator"]

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            run_spmd(0, lambda c: None)

    def test_args_passed(self):
        results = run_spmd(2, lambda c, a, b: a + b + c.rank, args=(10, 5))
        assert results == [15, 16]

    def test_meter_shared(self):
        meter = TrafficMeter()

        def body(c):
            if c.rank == 0:
                c.send(np.zeros(10), 1)
            elif c.rank == 1:
                c.recv(0)
            c.barrier()
            return None

        run_spmd(2, body, meter=meter)
        assert meter.total_bytes() == 80

    def test_create_group_size(self):
        comms = ThreadCommunicator.create_group(3)
        assert [c.rank for c in comms] == [0, 1, 2]
        assert all(c.size == 3 for c in comms)

    def test_create_group_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadCommunicator.create_group(0)
