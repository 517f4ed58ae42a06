"""Elastic endpoint fleet tests (PR 6 tentpole).

Units for every fleet piece — stream placement, heartbeat-lease
membership, work-stealing queues, coordinator — plus the
acceptance scenarios: killing 1 of 4 endpoints mid-run completes with
zero lost committed steps, and with no faults the output is
byte-identical to what the retired static split wrote (recorded in
``golden_intransit_outputs.json``).

Satellites covered here too: the SSTBroker shutdown race (a blocked
``get`` fails fast with ``EndpointDownError`` when the broker closes
or a producer dies), the ``RetryPolicy`` attempt budget + retry counters,
``(step, key)`` injector schedule entries, and ``dump_thread_stacks``.
"""

from __future__ import annotations

import gc
import hashlib
import io
import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.adios.engine import SSTBroker, SSTWriterEngine
from repro.codec import CodecSpec
from repro.faults.errors import EndpointDownError, StreamTimeout
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.fleet import (
    Directive,
    EndpointState,
    FleetCoordinator,
    FleetEndpoint,
    FleetMembership,
    RenderTask,
    WorkQueues,
)
from repro.insitu import InTransitRunner
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import weak_scaled_rbc_case
from repro.observe.session import Telemetry, active
from repro.parallel import block_range, run_spmd
from repro.parallel.runtime import dump_thread_stacks
from repro.perf.config import naive_mode
from repro.util.png import decode_png
from repro.vtkdata.readers import read_vtu

pytestmark = pytest.mark.fleet


class _Clock:
    """Deterministic monotonic clock for lease tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- stream placement --------------------------------------------------------


def _joined(writers: int, pool: int, order=None) -> FleetCoordinator:
    coord = FleetCoordinator(
        SSTBroker(num_writers=writers), num_writers=writers, pool_size=pool,
        lease_timeout=0.25, clock=_Clock(),
    )
    for eid in range(pool) if order is None else order:
        coord.join(eid)
    return coord


def _block_split(writers: int, pool: int) -> dict[int, int]:
    return {
        w: e for e in range(pool) for w in range(*block_range(writers, pool, e))
    }


@pytest.mark.parametrize("pool", [1, 2, 3, 4])
class TestStreamPlacement:
    """Streams follow the paper's static split, and a membership change
    moves only the streams it has to."""

    WRITERS = range(1, 13)

    def test_full_pool_is_the_block_split(self, pool):
        for writers in self.WRITERS:
            coord = _joined(writers, pool)
            assert coord.assignment() == _block_split(writers, pool)
            # every member gets a block while there are writers to go round
            assert len(set(coord.assignment().values())) == min(writers, pool)

    def test_each_loss_moves_only_the_lost_members_streams(self, pool):
        for writers in self.WRITERS:
            for order in itertools.permutations(range(pool)):
                coord = _joined(writers, pool)
                for k, lost in enumerate(order):
                    before = coord.assignment()
                    coord.fail(lost)
                    after = coord.assignment()
                    if k == pool - 1:
                        assert after == {}
                        break
                    moved = {w for w in before if after[w] != before[w]}
                    assert moved == {w for w, e in before.items() if e == lost}
                    assert set(after.values()) <= set(order[k + 1:])
                    assert coord.recoveries[-1].streams_moved == len(moved)

    def test_joins_move_streams_only_onto_the_joiner(self, pool):
        for writers in self.WRITERS:
            for order in itertools.permutations(range(pool)):
                coord = _joined(writers, pool, order=())
                assert coord.assignment() == {}
                for eid in order:
                    before = coord.assignment()
                    coord.join(eid)
                    after = coord.assignment()
                    assert all(
                        after[w] == eid for w in before if after[w] != before[w]
                    )
                # join order does not change the final table
                assert after == _block_split(writers, pool)


# -- membership -------------------------------------------------------------


class TestFleetMembership:
    def test_register_is_idempotent(self):
        m = FleetMembership(lease_timeout=1.0, clock=_Clock())
        e1 = m.register(0)
        e2 = m.register(0)
        assert e1 == e2 == 1
        assert m.state(0) is EndpointState.ACTIVE

    def test_heartbeat_unknown_member_raises(self):
        m = FleetMembership(lease_timeout=1.0, clock=_Clock())
        with pytest.raises(KeyError):
            m.heartbeat(7)

    def test_silent_active_member_expires(self):
        clock = _Clock()
        m = FleetMembership(lease_timeout=0.5, clock=clock)
        m.register(0)
        m.register(1)
        m.heartbeat(0)
        clock.advance(0.4)
        m.heartbeat(0)           # 0 keeps renewing, 1 goes silent
        clock.advance(0.2)       # t=0.6: 1's lease (0.5) lapsed
        assert m.expire() == [1]
        assert m.state(1) is EndpointState.DEAD
        assert m.state(0) is EndpointState.ACTIVE
        assert m.expire() == []  # death is reported exactly once

    def test_leave_and_fail_bump_epoch_and_end_membership(self):
        m = FleetMembership(lease_timeout=0.5, clock=_Clock())
        m.register(0)
        e = m.register(1)
        m.leave(0)
        assert m.fail(1) is True
        assert m.epoch == e + 2
        assert m.state(0) is EndpointState.LEFT
        assert m.state(1) is EndpointState.DEAD
        assert m.active_ids() == ()
        assert m.fail(0) is False and m.epoch == e + 2   # already gone

    def test_late_heartbeats_revive_nothing(self):
        clock = _Clock()
        m = FleetMembership(lease_timeout=0.5, clock=clock)
        m.register(0)
        clock.advance(1.0)
        assert m.expire() == [0]
        m.heartbeat(0)           # zombie still posting
        assert m.expire() == []
        assert m.state(0) is EndpointState.DEAD

    def test_next_expiry_is_the_earliest_active_lease(self):
        clock = _Clock()
        m = FleetMembership(lease_timeout=0.5, clock=clock)
        assert m.next_expiry() is None
        m.register(0)
        m.register(1)
        m.register(2)
        m.leave(2)                       # a departed lease never lapses
        clock.advance(0.3)
        m.heartbeat(0)                   # folded in: 0's lease -> 0.8
        assert m.next_expiry() == pytest.approx(0.5)
        clock.advance(0.3)
        m.heartbeat(1)                   # 1's lease -> 1.1
        assert m.next_expiry() == pytest.approx(0.8)


# -- work queues ------------------------------------------------------------


def _task(step: int) -> RenderTask:
    return RenderTask(step=step)


class TestWorkQueues:
    def test_pop_is_fifo(self):
        q = WorkQueues([0])
        q.push(0, _task(1))
        q.push(0, _task(2))
        assert q.pop(0).step == 1
        assert q.pop(0).step == 2
        assert q.pop(0) is None

    def test_steal_prefers_deepest_victim(self):
        q = WorkQueues([0, 1, 2])
        q.push(1, _task(0))
        for s in range(3):
            q.push(2, _task(s))
        task, victim = q.steal(0)
        assert victim == 2 and task.step == 0  # oldest task of deepest queue

    def test_steal_tie_breaks_to_lowest_eid(self):
        q = WorkQueues([0, 1, 2])
        q.push(1, _task(10))
        q.push(2, _task(20))
        task, victim = q.steal(0)
        assert victim == 1 and task.step == 10

    def test_steal_respects_candidates_and_self(self):
        q = WorkQueues([0, 1, 2])
        q.push(0, _task(0))
        q.push(2, _task(2))
        assert q.steal(0, candidates=(0,)) is None        # never self
        task, victim = q.steal(1, candidates=(0, 1))      # 2 not eligible
        assert victim == 0
        assert q.steal(1, candidates=(0, 1)) is None

    def test_drain_empties_and_counts(self):
        q = WorkQueues([0, 1])
        for s in range(4):
            q.push(0, _task(s))
        drained = q.drain(0)
        assert [t.step for t in drained] == [0, 1, 2, 3]
        assert q.depth(0) == 0 and q.total_depth() == 0
        assert q.pushed == 4


# -- coordinator ------------------------------------------------------------


def _stage_steps(broker: SSTBroker, steps: int, elems: int = 16,
                 close: bool = True, first: int = 0) -> None:
    """Write marshaled steps `first`..`steps`-1 on every writer, then
    (optionally) close the streams with sentinels."""
    for w in range(broker.num_writers):
        engine = SSTWriterEngine("fleet-test", broker, w)
        for s in range(first, steps):
            engine.begin_step()
            engine.set_step_info(s, s * 1e-2)
            engine.put("data", np.full(elems, float(w * 100 + s)))
            engine.end_step()
        if close:
            engine.close()


class TestFleetCoordinator:
    def _coordinator(self, writers=2, pool=1, queue_limit=64, clock=None,
                     lease_timeout=0.25, **kw) -> tuple[SSTBroker, FleetCoordinator]:
        broker = SSTBroker(num_writers=writers, queue_limit=queue_limit)
        coord = FleetCoordinator(
            broker, num_writers=writers, pool_size=pool,
            lease_timeout=lease_timeout, clock=clock or time.monotonic, **kw,
        )
        return broker, coord

    def test_single_endpoint_assembles_and_commits_everything(self):
        broker, coord = self._coordinator(writers=2, pool=1)
        _stage_steps(broker, steps=3)
        coord.join(0)
        seen = []
        while True:
            out = coord.poll(0)
            if out is Directive.STOP:
                break
            if out is Directive.IDLE:
                continue
            assert set(out.payloads) == {0, 1}  # fully assembled
            seen.append(out.step)
            coord.commit(0, out)
        assert seen == [0, 1, 2]
        assert coord.committed == {0, 1, 2}
        assert coord.done()

    def test_lease_lapse_reroutes_streams_and_replays_tasks(self):
        clock = _Clock()
        broker, coord = self._coordinator(
            writers=4, pool=2, lease_timeout=0.5, clock=clock,
        )
        _stage_steps(broker, steps=3)
        coord.join(0)
        coord.join(1)
        before = coord.assignment()
        assert set(before.values()) == {0, 1}  # both endpoints own streams
        # endpoint 1 dies silently; endpoint 0 keeps polling
        clock.advance(1.0)
        tasks = []
        while True:
            out = coord.poll(0)
            if out is Directive.STOP:
                break
            if out is Directive.IDLE:
                continue
            tasks.append(out)
            coord.commit(0, out)
        assert coord.crashes_detected == 1
        assert coord.membership.state(1) is EndpointState.DEAD
        after = coord.assignment()
        assert set(after.values()) == {0}
        stats = coord.stats()
        rec = stats["recoveries"][0]
        assert rec["eid"] == 1 and not rec["planned"]
        assert rec["streams_moved"] == sum(
            1 for w, o in before.items() if o == 1
        )
        assert coord.committed == {0, 1, 2}   # zero lost committed steps
        assert coord.done()

    def test_zombie_endpoint_is_told_to_stop(self):
        clock = _Clock()
        broker, coord = self._coordinator(
            writers=1, pool=2, lease_timeout=0.5, clock=clock,
        )
        coord.join(0)
        coord.join(1)
        clock.advance(1.0)
        coord.poll(0)            # reaps endpoint 1
        assert coord.membership.state(1) is EndpointState.DEAD
        # the "dead" member was merely slow; its next poll exits cleanly
        assert coord.poll(1) is Directive.STOP

    def test_slow_member_keeps_its_lease_while_it_works(self):
        """Slow is not dead: one member's task outlasts 4x the lease
        while its peer keeps polling — nobody is reaped, every step
        commits exactly once, both members depart normally."""
        clock = _Clock()
        lease = 0.5
        broker, coord = self._coordinator(
            writers=2, pool=2, lease_timeout=lease, clock=clock,
        )
        steps = 4
        _stage_steps(broker, steps=1, close=False)
        coord.join(0)
        coord.join(1)
        slow = None
        while slow is None:              # whoever completes the assembly
            for eid in (0, 1):
                out = coord.poll(eid)
                if isinstance(out, RenderTask):
                    slow, held = eid, out
                    break
        peer = 1 - slow
        for _ in range(16):              # 16 x lease/4 = 4 leases of silence
            clock.advance(lease / 4)
            assert coord.poll(peer) is Directive.IDLE
        assert coord.membership.state(slow) is EndpointState.ACTIVE
        coord.commit(slow, held)
        rendered = [held.step]
        _stage_steps(broker, steps=steps, first=1)      # the rest of the run
        stopped = set()
        while stopped != {0, 1}:
            for eid in (0, 1):
                out = coord.poll(eid)
                if out is Directive.STOP:
                    stopped.add(eid)
                elif isinstance(out, RenderTask):
                    rendered.append(out.step)
                    coord.commit(eid, out)
        assert coord.crashes_detected == 0
        assert not coord.stats()["recoveries"]
        assert sorted(rendered) == list(range(steps))   # none lost, none twice
        assert coord.committed == set(range(steps)) and coord.commits == steps
        for eid in (0, 1):
            coord.depart(eid)
            assert coord.membership.state(eid) is EndpointState.LEFT

    def test_member_that_raises_in_its_first_task_hands_it_back(self):
        """Peers renew a task holder's lease for as long as it holds the
        task, so a member that dies holding one reports it: its sink
        raises inside the very first task (no commit fleet-wide yet),
        the clock never moves, and the peer still runs to STOP."""

        class _Sink:
            recv_bytes = staging_peak = 0

            def __init__(self, broken):
                self.broken, self.steps = broken, []

            def process(self, task, coordinator):
                if self.broken:
                    raise OSError("disk full")
                self.steps.append(task.step)
                return True

            def finalize(self):
                pass

        broker, coord = self._coordinator(
            writers=1, pool=2, lease_timeout=0.5, clock=_Clock(),
        )
        _stage_steps(broker, steps=3)
        coord.join(0)
        coord.join(1)
        owner = coord.assignment()[0]
        with pytest.raises(OSError, match="disk full"):
            FleetEndpoint(owner, coord, _Sink(broken=True)).run()
        assert coord.commits == 0 and coord.crashes_detected == 1
        assert coord.membership.state(owner) is EndpointState.DEAD
        survivor = _Sink(broken=False)
        report = FleetEndpoint(1 - owner, coord, survivor).run()
        assert report.steps == 3 and sorted(survivor.steps) == [0, 1, 2]
        assert coord.committed == {0, 1, 2} and coord.commits == 3
        assert coord.stats()["recoveries"][0]["tasks_requeued"] == 3  # 1 held + 2 queued
        assert coord.done()
        assert coord.poll(owner) is Directive.STOP

    def test_idle_member_dequeues_once_per_wait(self, monkeypatch):
        """An idle poll finds the queues empty without a dequeue (each
        would be an ``sst.get`` span), and ``rest`` waits on the broker's
        events, never inside ``get``: the puts that end the wait are
        dequeued once each, by the next poll."""
        broker, coord = self._coordinator(writers=3, pool=1)
        coord.join(0)
        timeouts = []
        real = SSTBroker.get

        def counting(self, writer_rank, step=-1, timeout=None):
            timeouts.append(timeout)
            return real(self, writer_rank, step=step, timeout=timeout)

        monkeypatch.setattr(SSTBroker, "get", counting)
        for _ in range(5):
            assert coord.poll(0) is Directive.IDLE
        _stage_steps(broker, steps=1, close=False)      # staged after the poll
        assert coord.rest(0)          # an event ended the wait, not the lease
        assert timeouts == []
        out = coord.poll(0)
        assert isinstance(out, RenderTask) and set(out.payloads) == {0, 1, 2}
        assert timeouts == [0, 0, 0]

    def test_rest_with_nothing_new_ends_at_the_earliest_lease(self):
        broker, coord = self._coordinator(writers=1, pool=1, lease_timeout=0.01)
        coord.join(0)
        assert coord.poll(0) is Directive.IDLE
        assert not coord.rest(0)
        assert coord.membership.state(0) is EndpointState.ACTIVE

    def test_a_put_wakes_a_member_resting_in_another_thread(self):
        """With a 30 s lease bounding the wait, the resting member returns
        because a writer staged a step, whichever ran first."""
        broker, coord = self._coordinator(writers=1, pool=1, lease_timeout=30.0)
        coord.join(0)
        assert coord.poll(0) is Directive.IDLE
        woke = []
        t = threading.Thread(target=lambda: woke.append(coord.rest(0)),
                             daemon=True)
        t.start()
        _stage_steps(broker, steps=1, close=False)
        t.join(timeout=10.0)
        assert not t.is_alive() and woke == [True]

    def test_planned_depart_keeps_inflight_with_the_survivor(self):
        broker, coord = self._coordinator(writers=2, pool=2,
                                          queue_limit=64)
        _stage_steps(broker, steps=2)
        coord.join(0)
        coord.join(1)
        # whoever owns the last-ingested stream completes the assembly;
        # make endpoint 0 ingest everything it owns first
        task = None
        for eid in (0, 1):
            out = coord.poll(eid)
            if isinstance(out, RenderTask):
                task = (eid, out)
                break
        assert task is not None
        holder, render = task
        other = 1 - holder
        coord.depart(other)      # planned: no recovery record
        assert coord.crashes_detected == 0
        assert coord.planned_retirements >= 0
        coord.commit(holder, render)
        while True:
            out = coord.poll(holder)
            if out is Directive.STOP:
                break
            if isinstance(out, RenderTask):
                coord.commit(holder, out)
        assert coord.committed == {0, 1}
        assert not coord.stats()["recoveries"]

    def test_idle_endpoint_steals_queued_step(self):
        broker, coord = self._coordinator(writers=1, pool=2, queue_limit=8)
        coord.join(0)
        coord.join(1)
        coord.queues.push(0, RenderTask(step=7))
        out = coord.poll(1)
        assert isinstance(out, RenderTask) and out.step == 7
        assert coord.queues.stolen == 1

    def test_geometry_is_cached_and_replayed(self):
        broker, coord = self._coordinator(writers=1, pool=1)
        engine = SSTWriterEngine("fleet-test", broker, 0)
        engine.begin_step()
        engine.set_step_info(0, 0.0)
        engine.put("data", np.arange(8.0))
        engine.put_attribute("has_geometry", "1")
        engine.end_step()
        engine.close()
        coord.join(0)
        while True:
            out = coord.poll(0)
            if out is Directive.STOP:
                break
            if isinstance(out, RenderTask):
                coord.commit(0, out)
        assert coord.geometry(0) is not None
        assert coord.geometry(0).attributes["has_geometry"] == "1"


# -- broker shutdown race (satellite) ---------------------------------------


class TestBrokerShutdownRace:
    def test_blocked_get_fails_fast_on_broker_close(self):
        broker = SSTBroker(num_writers=1)
        caught = {}

        def consumer():
            t0 = time.perf_counter()
            try:
                broker.get(0)
            except EndpointDownError as exc:
                caught["error"] = exc
            except StreamTimeout as exc:        # pragma: no cover
                caught["error"] = exc
            caught["elapsed"] = time.perf_counter() - t0

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.05)         # let it block on the empty stream
        broker.close()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert isinstance(caught["error"], EndpointDownError)
        assert "broker closed" in str(caught["error"])
        assert caught["elapsed"] < 5.0          # not the 30s stream timeout

    def test_blocked_get_fails_fast_when_producer_dies(self):
        broker = SSTBroker(num_writers=2)
        caught = {}

        def consumer():
            try:
                broker.get(1)
            except EndpointDownError as exc:
                caught["error"] = exc

        t = threading.Thread(target=consumer, daemon=True)
        t.start()
        time.sleep(0.05)
        broker.mark_writer_down(1)
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert "producer dead" in str(caught["error"])

    def test_polling_get_reports_dead_stream_only_when_drained(self):
        broker = SSTBroker(num_writers=1, queue_limit=8)
        engine = SSTWriterEngine("x", broker, 0)
        engine.begin_step()
        engine.set_step_info(0, 0.0)
        engine.put("data", np.zeros(4))
        engine.end_step()
        broker.mark_writer_down(0)
        assert broker.get(0, step=0, timeout=0)         # staged data survives
        with pytest.raises(EndpointDownError):
            broker.get(0, step=1, timeout=0)


# -- retry deadline + counters (satellite) ----------------------------------


class TestRetryDeadline:
    def test_attempt_budget_message_preserved(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(EndpointDownError) as err:
            policy.call(lambda attempt: (_ for _ in ()).throw(
                StreamTimeout("x")))
        assert "2 attempts" in str(err.value)

    def test_counters_track_attempts_and_exhaustion(self):
        tel = Telemetry.create(rank=0)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with active(tel):
            with pytest.raises(EndpointDownError):
                policy.call(lambda attempt: (_ for _ in ()).throw(
                    StreamTimeout("x")))
            policy.call(lambda attempt: "ok")
        attempts = tel.metrics.counter(
            "repro_retry_attempts_total", "").value
        exhausted = tel.metrics.counter(
            "repro_retry_exhausted_total", "").value
        assert attempts == 4.0   # 3 failing + 1 succeeding
        assert exhausted == 1.0


# -- injector (step, key) schedule (satellite) ------------------------------


class TestInjectorKeyedSchedule:
    def test_pair_entry_fires_only_for_its_key(self):
        inj = FaultInjector(schedule={"endpoint_crash": ((3, 1),)})
        assert not inj.fires("endpoint_crash", "loop", 3, key=0)
        assert inj.fires("endpoint_crash", "loop", 3, key=1)
        assert not inj.fires("endpoint_crash", "loop", 4, key=1)

    def test_bare_step_fires_for_every_key(self):
        inj = FaultInjector(schedule={"endpoint_crash": (3,)})
        assert inj.fires("endpoint_crash", "loop", 3, key=0)
        assert inj.fires("endpoint_crash", "loop", 3, key=9)

    def test_mixed_entries(self):
        inj = FaultInjector(schedule={"drop_step": (1, (2, 5))})
        assert inj.fires("drop_step", "put", 1, key=0)
        assert inj.fires("drop_step", "put", 2, key=5)
        assert not inj.fires("drop_step", "put", 2, key=4)


# -- thread-stack dump (satellite) ------------------------------------------


def test_dump_thread_stacks_names_spmd_ranks():
    gate = threading.Event()

    def body():
        gate.wait(timeout=10.0)

    t = threading.Thread(target=body, name="spmd-rank-99", daemon=True)
    t.start()
    out = io.StringIO()
    try:
        count = dump_thread_stacks(out)
    finally:
        gate.set()
        t.join(timeout=5.0)
    text = out.getvalue()
    assert count >= 2
    assert "spmd-rank-99" in text
    assert "MainThread" in text
    assert "gate.wait" in text


@pytest.mark.timeout(20)
def test_dump_thread_stacks_keeps_the_collector_out():
    """CPython < 3.11.8 deadlocks when a GC pass inside
    ``sys._current_frames()`` frees a ``threading.local`` (gh-106883) —
    tier-1 wedged on it at the test above.  Land a pass inside the call:
    without the guard this hangs (the watchdog aborts), it cannot fail."""

    class Cycle:
        def __init__(self):
            self.me, self.local = self, threading.local()

    gate = threading.Event()
    threshold = gc.get_threshold()
    try:
        for k in range(1, 6):
            for _ in range(16):      # fresh frames: the call allocates
                threading.Thread(target=gate.wait, args=(20.0,),
                                 daemon=True).start()
            gc.collect()
            gc.disable()
            for _ in range(20):
                Cycle()              # cyclic garbage holding thread-locals
            gc.enable()
            gc.set_threshold(gc.get_count()[0] + 4 * k)
            assert dump_thread_stacks(io.StringIO()) >= 17
    finally:
        gc.set_threshold(*threshold)
        gate.set()


# -- end-to-end acceptance ---------------------------------------------------


def _fleet_runner(tmp, mode="checkpoint", steps=3, **kw):
    def case_builder(nsim):
        c = weak_scaled_rbc_case(nsim, elements_per_rank=2, order=3, dt=1e-3)
        return c.with_overrides(num_steps=steps)

    return InTransitRunner(
        case_builder,
        mode=mode,
        ratio=kw.pop("ratio", 2),
        num_steps=steps,
        stream_interval=1,
        arrays=("temperature", "velocity_magnitude"),
        output_dir=tmp,
        image_size=64,
        **kw,
    )


def _dir_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# What the fleet loop writes at the commit that last recorded it.  The
# PNG encoder's move from the Sub filter at zlib level 6 to the Up
# filter at level 3 changed the bytes of every PNG in `catalyst_4+1`,
# `catalyst_4+2` and `codec_1+1` (20 files) but no pixel: each new PNG
# was decoded to the same array as the one it replaced before the three
# were re-recorded; `checkpoint_4+1` did not move.  Before that, the
# one-pass weighted dot (one `einsum` over u, 1/multiplicity and v in
# place of a three-pass pairwise sum) moved the solution by round-off:
# `checkpoint_4+1` (12 of 15 files) was re-recorded after the
# two-level, warm-against-cold and physics suites passed on it; the
# three PNG scenarios did not move.  Before that, the
# pressure solve starting from the projection onto its last 8 solutions,
# and the Helmholtz solves from the EXT extrapolation of their history,
# moved the solution within its tolerance: `checkpoint_4+1` (8 of 15
# files), `catalyst_4+1` and `catalyst_4+2` (1 PNG each) were
# re-recorded with `pytest tests/test_fleet.py --record-goldens` after
# `test_warm_start_artefacts_match_cold_start` below passed on the new
# starts; `codec_1+1` did not move.  Before that, warm starts that count
# (every solve starts from the last step's field and stops at
# `tol * ||b||` instead of `tol * ||r0||`) re-recorded the same three
# scenarios, and before them the two-level pressure preconditioner
# re-recorded `checkpoint_4+1` and `codec_1+1`, checked by
# `test_two_level_artefacts_match_jacobi`.  The file was first recorded
# at b3f748a from the retired static `block_range` split; the fleet loop
# reproduced it byte for byte from da23582 on.
_GOLDEN = Path(__file__).with_name("golden_intransit_outputs.json")

_GOLDEN_SCENARIOS = {
    # name: (total ranks, _fleet_runner keywords)
    "checkpoint_4+1": (5, dict(mode="checkpoint", ratio=4)),
    "catalyst_4+1": (5, dict(mode="catalyst", ratio=4)),
    "catalyst_4+2": (6, dict(mode="catalyst", ratio=2)),
    # the rbc_intransit benchmark's shape: one writer, temporal codec
    "codec_1+1": (2, dict(
        mode="catalyst", ratio=1, steps=4,
        codec=CodecSpec.from_cli("delta-rle", "1e-3", temporal=True),
    )),
}


def _golden_hashes(name, tmp):
    """Run one recorded scenario; {relative path: sha256} of its output."""
    ranks, kw = _GOLDEN_SCENARIOS[name]
    runner = _fleet_runner(tmp, **kw)
    run_spmd(ranks, runner.run)
    hashes = {
        rel: hashlib.sha256(data).hexdigest()
        for rel, data in _dir_bytes(tmp).items()
    }
    return runner, hashes


def _assert_reproduces_golden(name, tmp, record=False):
    runner, hashes = _golden_hashes(name, tmp)
    assert runner.last_coordinator is not None
    golden = json.loads(_GOLDEN.read_text())
    if record:
        golden[name] = hashes
        _GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"--record-goldens: rewrote {name} in {_GOLDEN.name}")
    recorded = golden[name]
    assert hashes.keys() == recorded.keys() and len(hashes) > 0
    assert hashes == recorded


def _assert_same_artefacts(new: Path, old: Path):
    """Two output trees show the same thing: same files; PNGs of one
    shape and dtype with <= 0.5 % of pixels differing, by <= 2 levels;
    VTUs with the same arrays, ``allclose(rtol=1e-6)``."""
    names = sorted(_dir_bytes(new))
    assert names == sorted(_dir_bytes(old)) and names
    for rel in names:
        if rel.endswith(".png"):
            a, b = (decode_png((root / rel).read_bytes()) for root in (new, old))
            assert a.shape == b.shape and a.dtype == b.dtype, rel
            levels = np.abs(a.astype(int) - b.astype(int)).max(axis=-1)
            assert levels.max() <= 2, rel
            assert (levels > 0).mean() <= 0.005, rel
        elif rel.endswith(".vtu"):
            a, b = (read_vtu(root / rel) for root in (new, old))
            np.testing.assert_array_equal(a.cells, b.cells, err_msg=rel)
            np.testing.assert_array_equal(a.points, b.points, err_msg=rel)
            assert a.point_data.keys() == b.point_data.keys(), rel
            for key, arr in a.point_data.items():
                # np.allclose's defaults: the fields are nondimensional
                # (free-fall units), so 1e-8 absolute sits two decades
                # under the pressure tolerance both runs solve to
                np.testing.assert_allclose(
                    arr.values, b.point_data[key].values,
                    rtol=1e-6, atol=1e-8, err_msg=f"{rel}:{key}",
                )
        else:
            assert (new / rel).read_bytes() == (old / rel).read_bytes(), rel


@pytest.mark.timeout(120)
class TestFleetEndToEnd:
    def test_kill_one_of_four_endpoints_loses_no_committed_steps(self, tmp_path):
        """Acceptance: 8 sims + 4 endpoints, endpoint 2 dies at its
        first poll — every streamed step still commits exactly once."""
        steps = 3
        injector = FaultInjector(schedule={"endpoint_crash": ((0, 2),)})
        runner = _fleet_runner(
            tmp_path, steps=steps,
            injector=injector,
            retry=RetryPolicy(max_attempts=20, base_delay=0.01,
                              attempt_timeout=0.1),
        )
        results = run_spmd(12, runner.run)
        sims = [r for r in results if r.role == "simulation"]
        ends = [r for r in results if r.role == "endpoint"]
        assert len(sims) == 8 and len(ends) == 4

        crashed = [r for r in ends if r.extra.get("crashed")]
        assert [r.rank for r in crashed] == [2]

        coord = runner.last_coordinator
        stats = coord.stats()
        # zero lost committed steps: every streamed step committed
        # (solver step numbering is 1-based)
        assert coord.committed == set(range(1, steps + 1))
        assert stats["crashes_detected"] == 1
        rec = stats["recoveries"][0]
        assert rec["eid"] == 2 and not rec["planned"]
        assert rec["streams_moved"] >= 1
        assert rec["recovery_seconds"] is not None
        assert rec["recovery_seconds"] < 30.0       # recovery SLO

        # the simulation never had to degrade: the reroute landed
        # inside the writers' retry budget
        assert all(r.steps == steps for r in sims)
        assert all(r.extra["degraded_steps"] == 0 for r in sims)

        # fault ledger balances: the one injected crash was recovered
        log = injector.log
        assert log.injected["endpoint_crash"] == 1
        assert log.recovered["endpoint_crash"] == 1
        assert log.accounted

        # all 8 blocks x 3 steps of VTU output exist despite the loss
        vtus = list((tmp_path / "checkpoint").glob("*.vtu"))
        assert len(vtus) == steps * 8

    def test_fleet_output_matches_static_split_without_faults(
        self, tmp_path, record_goldens
    ):
        """Acceptance: the one endpoint loop writes the recorded files
        when no faults fire (checkpoint mode, 4+1)."""
        _assert_reproduces_golden("checkpoint_4+1", tmp_path, record_goldens)

    def test_fleet_renders_identical_frames(self, tmp_path, record_goldens):
        """Same equivalence for rendered catalyst frames (4+1)."""
        _assert_reproduces_golden("catalyst_4+1", tmp_path, record_goldens)

    @pytest.mark.parametrize("name", ["catalyst_4+2", "codec_1+1"])
    def test_reproduces_recorded_static_split(self, name, tmp_path, record_goldens):
        """Two endpoints (the static split rendered collectively, a
        fleet member renders a whole step alone) and the benchmark's
        temporal-codec stream."""
        _assert_reproduces_golden(name, tmp_path, record_goldens)

    @pytest.mark.parametrize("name", _GOLDEN_SCENARIOS)
    def test_two_level_artefacts_match_jacobi(self, name, tmp_path, monkeypatch):
        """The recorded bytes are pinned on meaning: every scenario run
        with the pressure preconditioner cut back to its Jacobi half (a
        test seam; what the solver ran before PR 20) writes the same
        pictures and the same fields."""
        _golden_hashes(name, tmp_path / "two_level")
        two_level = NekRSSolver._pressure_preconditioner
        monkeypatch.setattr(
            NekRSSolver, "_pressure_preconditioner",
            lambda self: two_level(self).jacobi,
        )
        _golden_hashes(name, tmp_path / "jacobi")
        _assert_same_artefacts(tmp_path / "two_level", tmp_path / "jacobi")

    @pytest.mark.parametrize("name", _GOLDEN_SCENARIOS)
    def test_warm_start_artefacts_match_cold_start(self, name, tmp_path, cold_start):
        """The same pin for warm starts: every scenario run with every
        solve started from zero (a test seam; where a cold solve stops,
        ``tol * ||b||`` and ``tol * ||r0||`` agree) writes the same
        pictures and the same fields."""
        _golden_hashes(name, tmp_path / "warm")
        cold_start()
        _golden_hashes(name, tmp_path / "cold")
        _assert_same_artefacts(tmp_path / "warm", tmp_path / "cold")

    def test_naive_mode_selects_no_other_topology(self, tmp_path):
        """naive_mode() picks numerical reference kernels, not a second
        endpoint loop: same coordinator, same files."""
        with naive_mode():
            _assert_reproduces_golden("checkpoint_4+1", tmp_path)

    def test_fleet_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="lease_timeout"):
            _fleet_runner(tmp_path, lease_timeout=0.0)
