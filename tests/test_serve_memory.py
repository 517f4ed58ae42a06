"""A viewer session's memory, counted by tracemalloc, and its step record.

A session records the steps it took as runs of consecutive steps, so
what it holds grows with the gaps in what it took, not with the stream:
a viewer that keeps up holds one open run however long it watches.
Sizes are bytes still allocated from ``serve/pump.py`` when the session
is quiescent, so the verdicts are deterministic: no wall clock.  With a
plain list of steps, a session that took 5,000 more consecutive frames
held ~40 KB more.

The edge cases compare ``steps`` and ``delivered`` with a plain-list
model of the steps taken, through the hub's own take path.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import SessionStats, pump
from test_serve_mesh import _quiet_mesh

pytestmark = [pytest.mark.timeout(120)]

#: bytes a session may hold after 10,000 consecutive takes beyond what
#: it held after 5,000 (a list of steps grows ~40 KB over those takes)
CONSECUTIVE_SLACK = 512
#: one closed run is a [start, stop) pair of int64 bounds
GAP_BYTES = 16
#: bytes allowed beyond GAP_BYTES per gap, for the array's overallocation
GAP_SLACK = 1024
PAYLOAD = b"frame"
BATCH = 100


def _held() -> int:
    """Bytes allocated from serve/pump.py that are still alive."""
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, pump.__file__)])
    return sum(stat.size for stat in snap.statistics("filename"))


@pytest.fixture
def traced():
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    yield
    if not tracing:
        tracemalloc.stop()


class TestSessionMemory:
    def test_consecutive_takes_hold_constant_memory(self, traced):
        mesh = _quiet_mesh(history=2)
        s = mesh.connect(label="v", depth=BATCH)
        step = 0
        held = []
        for frames in (5_000, 5_000):
            for _ in range(frames // BATCH):
                for _ in range(BATCH):
                    mesh.publish("s", step=step, time=0.0, data=PAYLOAD)
                    step += 1
                mesh.settle()
                assert len(s.drain()) == BATCH
            held.append(_held())
        assert s.stats.delivered == step == 10_000
        assert held[1] - held[0] <= CONSECUTIVE_SLACK, held

    def test_a_gap_costs_one_pair_of_bounds(self, traced):
        # depth 1 and two publishes per take: every other frame is
        # dropped, so every take after the first opens a new run
        mesh = _quiet_mesh(history=2)
        s = mesh.connect(label="v", depth=1)
        step = 0
        held = []
        for takes in (5_000, 5_000):
            for _ in range(takes):
                for _ in range(2):
                    mesh.publish("s", step=step, time=0.0, data=PAYLOAD)
                    step += 1
                mesh.settle()
                assert s.take(block=False).step == step - 1
            held.append(_held())
        assert s.stats.steps == list(range(1, step, 2))
        assert s.stats.dropped == 5_000 + 5_000
        # the array overallocates by up to 1/16 of its size on growth
        bound = GAP_BYTES * 5_000 * 9 // 8 + GAP_SLACK
        assert held[1] - held[0] <= bound, held


class TestConcurrentTakes:
    def test_takers_on_one_session_lose_no_step(self):
        # the record is written under the pump's lock, so takers racing
        # on one session (with a short switch interval) still leave one
        # run holding every step once, in queue order
        n, takers = 4_000, 6
        mesh = _quiet_mesh(history=2)
        s = mesh.connect(label="v", depth=n)
        for step in range(n):
            mesh.publish("s", step=step, time=0.0, data=PAYLOAD)
        mesh.settle()
        got = [[] for _ in range(takers)]

        def take_all(out):
            while (frame := s.take(block=False)) is not None:
                out.append(frame.step)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=take_all, args=(out,))
                       for out in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(step for out in got for step in out) == list(range(n))
        assert s.stats.steps == list(range(n))
        assert s.stats.delivered == n
        assert len(s.stats._runs) == 0      # still the one open run


def _deliver(steps, streams=("s",)) -> tuple[SessionStats, list]:
    """Publish `steps` (round-robin over `streams`) and take them all."""
    mesh = _quiet_mesh(history=2)
    s = mesh.connect(label="v", depth=max(1, len(steps)))
    for i, step in enumerate(steps):
        mesh.publish(streams[i % len(streams)], step=step, time=0.0,
                     data=PAYLOAD)
    mesh.settle()
    taken = [f.step for f in s.drain()]
    return s.stats, taken


def _check(steps, streams=("s",)) -> None:
    stats, taken = _deliver(steps, streams)
    assert taken == list(steps)             # the plain-list model
    assert stats.steps == taken
    assert stats.delivered == len(taken)
    assert stats.as_dict()["delivered"] == len(taken)
    assert stats.offered == len(taken) and stats.dropped == 0


class TestStepRecord:
    def test_a_fresh_session_has_taken_nothing(self):
        stats = SessionStats()
        assert stats.steps == [] and stats.delivered == 0
        assert list(stats.as_dict()) == [
            "offered", "delivered", "dropped", "rate_limited", "bytes_out"]

    @pytest.mark.parametrize("first", [0, 1, -1, -7, -(2**63)])
    def test_first_step(self, first):
        _check([first])
        _check([first, first + 1, first + 2])
        _check([first, first + 2, first + 3])

    def test_no_step_extends_the_initial_run(self):
        # the fresh record's open run ends at -inf, so "last + 1" is no
        # step: the first take always opens a run of its own
        assert SessionStats()._last + 1 == -float("inf")

    def test_the_same_step_on_two_streams(self):
        _check([5, 5, 6, 6, 7, 7], streams=("a", "b"))
        _check([3, 3], streams=("a", "b"))

    def test_a_step_that_goes_back(self):
        _check([10, 11, 12, 3, 4, 12, 13])
        _check([4, 3, 2, 1, 0])

    def test_steps_above_2_31(self):
        big = 2**31
        _check([big - 1, big, big + 1, big + 5])
        _check([2**40, 2**40 + 1, 2**62, 2**62 + 1, 2**63 - 2])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**40), 2**40) | st.integers(-3, 12),
                    max_size=30))
    def test_any_sequence_matches_the_list_model(self, steps):
        _check(steps, streams=("a", "b"))
