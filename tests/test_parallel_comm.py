"""Tests for the communicator layer (serial + reduce ops + metering)."""

import pickle

import numpy as np
import pytest

from repro.parallel import run_spmd
from repro.parallel.comm import (
    ReduceOp,
    SerialCommunicator,
    TrafficMeter,
    _combine,
    payload_nbytes,
)


class TestCombine:
    def test_sum_scalars(self):
        assert _combine(ReduceOp.SUM, [1, 2, 3]) == 6

    def test_min_max(self):
        assert _combine(ReduceOp.MIN, [3, 1, 2]) == 1
        assert _combine(ReduceOp.MAX, [3, 1, 2]) == 3

    def test_prod(self):
        assert _combine(ReduceOp.PROD, [2, 3, 4]) == 24

    def test_logical(self):
        assert _combine(ReduceOp.LAND, [True, True]) is True
        assert _combine(ReduceOp.LAND, [True, False]) is False
        assert _combine(ReduceOp.LOR, [False, True]) is True
        assert _combine(ReduceOp.LOR, [False, False]) is False

    def test_arrays_elementwise(self):
        arrays = [np.array([1.0, 5.0]), np.array([2.0, 3.0])]
        np.testing.assert_array_equal(_combine(ReduceOp.SUM, arrays), [3.0, 8.0])
        np.testing.assert_array_equal(_combine(ReduceOp.MIN, arrays), [1.0, 3.0])
        np.testing.assert_array_equal(_combine(ReduceOp.MAX, arrays), [2.0, 5.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _combine(ReduceOp.SUM, [])


class TestPayloadNbytes:
    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_numpy_uses_nbytes(self):
        arr = np.zeros(10)
        assert payload_nbytes(arr) == 80

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_array_list(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40

    def test_object_uses_pickle_size(self):
        assert payload_nbytes({"a": 1}) > 0


def _pickled_nbytes(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class _TaggedFloat(float):
    """A float subclass: its pickle names the class, so it is longer."""


def _values(rng, ranks, shape, dtype):
    """Per-rank arrays spanning 16 decades, with signed zeros mixed in."""
    out = []
    for _ in range(ranks):
        v = np.asarray(rng.standard_normal(shape)
                       * 10.0 ** rng.integers(-8, 8, shape)).astype(dtype)
        v.reshape(-1)[::3] = -0.0
        out.append(v)
    return out


class TestFastPathsMatchTheOldExpressions:
    """``_combine``'s float sum and ``payload_nbytes``'s float size are
    bit-identical to the stacked sum and the pickle length they
    replace, and so are the allreduce results and metered bytes."""

    @pytest.mark.parametrize("ranks", range(1, 7))
    def test_float_sum_is_the_stacked_sum(self, ranks):
        rng = np.random.default_rng(ranks)
        for shape in [(), (1,), (2,), (7,), (5000,), (3, 1), (4, 6)]:
            for dtype in (np.float64, np.float32, np.complex128):
                values = _values(rng, ranks, shape, dtype)
                got = _combine(ReduceOp.SUM, values)
                want = np.stack(values).sum(axis=0)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (shape, dtype)

    def test_mixed_and_integer_sums_keep_the_stack(self):
        mixed = [np.ones(3, np.float32) / 3, np.ones(3) / 3]
        assert _combine(ReduceOp.SUM, mixed).tobytes() == (
            np.stack(mixed).sum(axis=0).tobytes())
        flags = [np.array([True, True]), np.array([True, False])]
        assert _combine(ReduceOp.SUM, flags).tolist() == [2, 1]

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -1e308, 5e-324,
                                       float("inf"), float("nan")])
    def test_float_size_is_its_pickle(self, value):
        assert payload_nbytes(value) == _pickled_nbytes(value)

    def test_numpy_and_subclassed_floats_are_pickled(self):
        for value in (np.float64(1.0), np.float32(1.0), _TaggedFloat(1.0)):
            assert payload_nbytes(value) == _pickled_nbytes(value)
        assert payload_nbytes(np.float64(1.0)) != payload_nbytes(1.0)

    @pytest.mark.parametrize("ranks", range(1, 7))
    def test_allreduce_results_and_meter_bytes(self, ranks):
        def body(comm):
            rng = np.random.default_rng(100 + comm.rank)
            scalar = float(rng.standard_normal())
            array = _values(rng, 1, (9,), np.float64)[0]
            return (scalar, array, comm.allreduce(scalar),
                    comm.allreduce_array(array))

        meter = TrafficMeter()
        results = run_spmd(ranks, body, meter=meter)
        scalars = [r[0] for r in results]
        arrays = [r[1] for r in results]
        want = np.stack(arrays).sum(axis=0).tobytes()
        for _, _, total, summed in results:
            assert total == sum(scalars)
            assert summed.tobytes() == want
        per_rank = (_pickled_nbytes(1.0) + arrays[0].nbytes) * (ranks - 1)
        assert meter.total_bytes() == (per_rank * ranks if ranks > 1 else 0)


class TestTrafficMeter:
    def test_record_and_totals(self):
        m = TrafficMeter()
        m.record("send", 100, 4, "solver")
        m.record("send", 50, 4, "sst")
        assert m.total_bytes() == 150
        assert m.total_bytes("solver") == 100
        assert m.count("send") == 2
        assert m.count() == 2

    def test_clear(self):
        m = TrafficMeter()
        m.record("send", 10, 2)
        m.clear()
        assert m.total_bytes() == 0
        assert m.count() == 0 and m.per_rank_bytes() == {}

    def test_long_run_keeps_one_entry_per_op_channel_rank(self):
        """10^5 collectives must not cost 10^5 entries: the meter holds
        totals per (op, channel, rank) and answers every query from them
        exactly as a replay of the individual records would."""
        ops, channels = ("send", "allreduce", "gather"), ("solver", "sst")
        rng = np.random.default_rng(3)
        records = [
            (ops[o], int(n), 4, channels[c], int(r))
            for o, n, c, r in zip(
                rng.integers(3, size=100_000), rng.integers(1, 4096, 100_000),
                rng.integers(2, size=100_000), rng.integers(-1, 4, 100_000),
            )
        ]
        m = TrafficMeter()
        for record in records:
            m.record(*record)
        assert len(m._totals) <= len(ops) * len(channels) * 5

        def replay(op=None, channel=None):
            return [r for r in records
                    if op in (None, r[0]) and channel in (None, r[3])]

        assert m.count() == 100_000
        assert m.total_bytes() == sum(r[1] for r in records)
        for op in (None, *ops):
            assert m.count(op) == len(replay(op))
            for channel in (None, *channels):
                per_rank = {}
                for r in replay(op, channel):
                    per_rank[r[4]] = per_rank.get(r[4], 0) + r[1]
                assert m.per_rank_bytes(op, channel) == per_rank
                if op is None:
                    assert m.total_bytes(channel) == sum(per_rank.values())


class TestSerialCommunicator:
    def test_identity_collectives(self, comm):
        assert comm.rank == 0
        assert comm.size == 1
        assert comm.is_root
        assert comm.allgather(42) == [42]
        assert comm.bcast("x") == "x"
        assert comm.gather(1) == [1]
        assert comm.allreduce(5) == 5
        assert comm.scatter([7]) == 7
        assert comm.alltoall([9]) == [9]
        comm.barrier()

    def test_reduce_on_root(self, comm):
        assert comm.reduce(3) == 3

    def test_allreduce_array(self, comm):
        arr = np.array([1.0, 2.0])
        np.testing.assert_array_equal(comm.allreduce_array(arr), arr)

    def test_send_recv_raise(self, comm):
        with pytest.raises(RuntimeError):
            comm.send(1, 0)
        with pytest.raises(RuntimeError):
            comm.recv(0)

    def test_split_returns_serial(self, comm):
        sub = comm.split(0)
        assert isinstance(sub, SerialCommunicator)
        assert sub.size == 1

    def test_scatter_wrong_length_raises(self, comm):
        with pytest.raises(ValueError):
            comm.scatter([1, 2])
