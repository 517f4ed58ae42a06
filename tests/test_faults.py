"""Fault-injection and fault-tolerance tests (ISSUE 1).

Covers: seeded injector determinism, retry/backoff semantics, CRC
corruption detection and skipping, typed stall detection, graceful
degradation to checkpoint fallback, the Discard queue-full race, and
the 4-writer/1-endpoint in-transit run that survives a mid-run
endpoint crash with full fault accounting.
"""

import threading

import numpy as np
import pytest

from repro.adios import (
    SSTBroker,
    SSTWriterEngine,
    StepPayload,
    StepStatus,
    marshal_step,
    unmarshal_step,
)
from repro.faults import (
    FAULT_KINDS,
    CorruptPayloadError,
    EndpointDownError,
    FaultInjector,
    FaultLog,
    RankStallError,
    RetryPolicy,
    StreamTimeout,
    TransportError,
)
from repro.fleet import Directive, FleetCoordinator, RenderTask

pytestmark = pytest.mark.faults


# -- injector ---------------------------------------------------------------


class TestFaultInjectorDeterminism:
    def _schedule(self, seed):
        inj = FaultInjector(seed=seed, probabilities={"corrupt_payload": 0.4,
                                                      "drop_step": 0.3})
        return [
            (kind, step, key)
            for kind in ("corrupt_payload", "drop_step")
            for step in range(60)
            for key in range(4)
            if inj.fires(kind, "site", step, key)
        ]

    def test_same_seed_same_schedule(self):
        assert self._schedule(11) == self._schedule(11)

    def test_fires_are_stateless(self):
        # repeated queries for the same coordinates agree — the draw
        # must not depend on call order (thread interleaving)
        inj = FaultInjector(seed=5, probabilities={"drop_step": 0.5})
        first = inj.fires("drop_step", "broker.put", 7, 2)
        for _ in range(5):
            inj.fires("drop_step", "broker.put", 1, 1)  # unrelated draws
        assert inj.fires("drop_step", "broker.put", 7, 2) == first

    def test_different_seed_different_schedule(self):
        assert self._schedule(11) != self._schedule(12)

    def test_schedule_fires_exactly_at_steps(self):
        inj = FaultInjector(seed=0, schedule={"endpoint_crash": (3, 5)})
        fired = [s for s in range(10) if inj.fires("endpoint_crash", "loop", s)]
        assert fired == [3, 5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(probabilities={"gremlins": 1.0})
        with pytest.raises(ValueError):
            FaultInjector().fires("gremlins", "site", 0)

    def test_maybe_records_injection(self):
        inj = FaultInjector(seed=0, schedule={"drop_step": (1,)})
        assert inj.maybe("drop_step", "broker.put", 0) is None
        event = inj.maybe("drop_step", "broker.put", 1)
        assert event is not None and event.kind == "drop_step"
        assert inj.log.injected["drop_step"] == 1

    def test_corrupt_always_changes_bytes_deterministically(self):
        inj = FaultInjector(seed=9, schedule={"corrupt_payload": (0,)})
        event = inj.maybe("corrupt_payload", "broker.get", 0)
        data = bytes(range(64))
        out1 = inj.corrupt(data, event)
        out2 = inj.corrupt(data, event)
        assert out1 != data
        assert out1 == out2


class TestFaultLog:
    def test_resolution_identity(self):
        log = FaultLog()
        inj = FaultInjector(seed=0, schedule={"drop_step": (0, 1, 2)}, log=log)
        for s in range(3):
            inj.maybe("drop_step", "broker.put", s)
        assert not log.accounted
        assert log.try_resolve("drop_step", "detected")
        assert log.try_resolve("drop_step", "recovered")
        assert log.try_resolve("drop_step", "degraded")
        assert log.accounted
        # clamped: no over-resolution once every fault has an outcome
        assert not log.try_resolve("drop_step", "detected")
        assert log.snapshot()["detected"]["drop_step"] == 1

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            FaultLog().try_resolve("drop_step", "vanished")


# -- retry ------------------------------------------------------------------


class TestRetryPolicy:
    def test_retry_then_succeed(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.001)
        attempts = []

        def op(attempt):
            attempts.append(attempt)
            if attempt < 3:
                raise StreamTimeout("not yet")
            return "done"

        retried = []
        assert policy.call(op, on_retry=lambda a, e: retried.append(a)) == "done"
        assert attempts == [1, 2, 3]
        assert retried == [1, 2]

    def test_exhaustion_raises_endpoint_down(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.001)

        def op(attempt):
            raise StreamTimeout("still dead")

        with pytest.raises(EndpointDownError) as err:
            policy.call(op)
        assert isinstance(err.value.__cause__, StreamTimeout)

    def test_non_retryable_passes_through(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.001)

        def op(attempt):
            raise EndpointDownError("terminal")

        with pytest.raises(EndpointDownError):
            policy.call(op)

    def test_backoff_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3,
                             jitter=0.25, seed=4)
        delays = [policy.backoff(a) for a in range(1, 8)]
        assert delays == [policy.backoff(a) for a in range(1, 8)]
        assert all(d <= 0.3 * 1.25 for d in delays)
        nojit = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0)
        assert nojit.backoff(1) == pytest.approx(0.1)
        assert nojit.backoff(5) == pytest.approx(0.3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# -- CRC integrity ----------------------------------------------------------


class TestPayloadIntegrity:
    def _payload(self):
        return StepPayload(3, 0.25, 1, {"u": np.arange(16.0)}, {"a": "b"})

    def test_roundtrip_with_crc(self):
        out = unmarshal_step(marshal_step(self._payload()))
        np.testing.assert_array_equal(out.variables["u"], np.arange(16.0))

    @pytest.mark.parametrize("pos", [5, 9, 30, -1])
    def test_flipped_byte_detected(self, pos):
        data = bytearray(marshal_step(self._payload()))
        data[pos] ^= 0x40
        with pytest.raises(CorruptPayloadError):
            unmarshal_step(bytes(data))

    def test_corrupt_error_is_transport_and_value_error(self):
        assert issubclass(CorruptPayloadError, TransportError)
        assert issubclass(CorruptPayloadError, ValueError)

    def test_legacy_v1_payload_is_rejected(self):
        data = marshal_step(self._payload())
        legacy = b"RBP1" + data[8:]  # v1: same body, no CRC header
        with pytest.raises(CorruptPayloadError, match="bad magic"):
            unmarshal_step(legacy)


# -- broker injection sites -------------------------------------------------


def _drain_fleet(broker):
    """Consume every (closed) stream of `broker` through a one-member
    fleet; returns the coordinator and its render tasks in order."""
    coord = FleetCoordinator(broker, num_writers=broker.num_writers, pool_size=1)
    coord.join(0)
    tasks = []
    while (out := coord.poll(0)) is not Directive.STOP:
        if isinstance(out, RenderTask):
            tasks.append(out)
            coord.commit(0, out)
    return coord, tasks


class TestBrokerInjection:
    def test_drop_step_is_detected_and_skipped(self):
        inj = FaultInjector(seed=0, schedule={"drop_step": (1,)})
        broker = SSTBroker(num_writers=1, queue_limit=4, injector=inj)
        broker.put(0, b"step0", step=0)
        broker.put(0, b"dropped", step=1)
        broker.put(0, b"step2", step=2)
        assert broker.get(0) == b"step0"
        assert broker.get(0) == b"step2"
        assert broker.stats.steps_discarded == 1
        snap = broker.stats.faults.snapshot()
        assert snap["injected"]["drop_step"] == 1
        assert snap["detected"]["drop_step"] == 1

    def test_stall_and_slow_consumer_resolve_recovered(self):
        inj = FaultInjector(
            seed=0,
            schedule={"writer_stall": (0,), "slow_consumer": (0,)},
            delays={"writer_stall": 0.0, "slow_consumer": 0.0},
        )
        broker = SSTBroker(num_writers=1, injector=inj)
        broker.put(0, b"x", step=0)
        broker.get(0, step=0)
        assert broker.stats.faults.accounted
        snap = broker.stats.faults.snapshot()
        assert snap["recovered"] == {"writer_stall": 1, "slow_consumer": 1}

    def test_polling_get_injects_once_per_delivered_step(self):
        """The hooks run after a successful dequeue: a consumer that
        polls an empty stream cannot multiply injections."""
        inj = FaultInjector(
            seed=0,
            probabilities={"slow_consumer": 1.0},
            delays={"slow_consumer": 0.0},
        )
        broker = SSTBroker(num_writers=1, queue_limit=8, injector=inj)
        for _ in range(50):
            with pytest.raises(StreamTimeout):
                broker.get(0, step=0, timeout=0)
        assert inj.log.total_injected == 0
        assert broker.stats.steps_got == 0
        staged = 5
        for step in range(staged):
            broker.put(0, b"payload", step=step)
        for step in range(staged):
            assert broker.get(0, step=step, timeout=0) == b"payload"
        with pytest.raises(StreamTimeout):
            broker.get(0, step=staged, timeout=0)
        snap = inj.log.snapshot()
        assert snap["injected"] == {"slow_consumer": staged}
        assert snap["recovered"] == {"slow_consumer": staged}
        assert broker.stats.steps_got == staged

    def test_corrupted_payload_skipped_by_reader(self):
        """The stream's consumer (the fleet coordinator) counts a payload
        corrupted in flight and skips it; the next step arrives intact."""
        inj = FaultInjector(seed=0, schedule={"corrupt_payload": (0,)})
        broker = SSTBroker(num_writers=1, injector=inj)
        writer = SSTWriterEngine("s", broker, 0)
        for step in (0, 1):
            writer.set_step_info(step, 0.0)
            writer.begin_step()
            writer.put("u", np.arange(4.0))
            writer.end_step()
        writer.close()
        coord, tasks = _drain_fleet(broker)
        # read step 0 was corrupted in flight: counted, never assembled
        assert coord.corrupt_steps == 1
        assert broker.stats.steps_corrupt == 1
        assert broker.stats.faults.accounted
        # read step 1 arrives intact
        assert [t.step for t in tasks] == [1]
        assert 0 in tasks[0].payloads

    def test_writer_retry_exhaustion_raises_endpoint_down(self):
        broker = SSTBroker(num_writers=1, queue_limit=1)
        retry = RetryPolicy(max_attempts=3, base_delay=0.001, attempt_timeout=0.01)
        writer = SSTWriterEngine("s", broker, 0, retry=retry)
        writer.begin_step()
        writer.put("u", np.zeros(2))
        writer.end_step()  # fills the queue; nobody reads
        writer.begin_step()
        writer.put("u", np.zeros(2))
        with pytest.raises(EndpointDownError):
            writer.end_step()
        assert broker.stats.faults.retries == 2
        # step state was reset despite the failure: the writer survives
        assert writer.begin_step() is StepStatus.OK

    def test_marked_down_broker_fails_fast(self):
        broker = SSTBroker(num_writers=1)
        broker.mark_endpoint_down()
        with pytest.raises(EndpointDownError):
            broker.put(0, b"x")
        writer = SSTWriterEngine("s", broker, 0)
        with pytest.raises(EndpointDownError):
            writer.begin_step()
        writer.close()  # sentinel skipped; must not block or raise

    def test_stream_timeout_is_typed(self):
        broker = SSTBroker(num_writers=1, queue_limit=1, timeout=0.01)
        broker.put(0, b"x")
        with pytest.raises(StreamTimeout):
            broker.put(0, b"y")
        assert issubclass(StreamTimeout, TimeoutError)  # seed compatibility


class TestDiscardRace:
    def test_discard_loops_until_put_succeeds(self):
        """Hammer a Discard broker with a concurrent reader: dropping the
        oldest step and staging the new one happen under one lock, so a
        put never fails and every step is delivered, discarded, or still
        staged."""
        broker = SSTBroker(num_writers=1, queue_limit=1,
                           queue_full_policy="Discard")
        n = 400
        errors = []
        drained = []

        def reader():
            for _ in range(10 * n):
                try:
                    drained.append(broker.get(0, timeout=0))
                except StreamTimeout:
                    pass

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for i in range(n):
            try:
                broker.put(0, b"%d" % i)
            except Exception as exc:  # noqa: BLE001 - the regression under test
                errors.append(exc)
        t.join()
        assert errors == []
        assert broker.stats.steps_put == n
        # every step is accounted: delivered, discarded, or still staged
        left = broker.staged_steps()
        assert len(drained) + broker.stats.steps_discarded + left == n


# -- typed stall detection --------------------------------------------------


class TestRankStall:
    def test_barrier_timeout_raises_rank_stall(self):
        from repro.parallel import ThreadCommunicator

        comms = ThreadCommunicator.create_group(2)
        comms[0].timeout = 0.05
        with pytest.raises(RankStallError) as err:
            comms[0].barrier()  # rank 1 never arrives
        assert err.value.rank == 0
        assert err.value.channel == "default"
        assert "stalled" in str(err.value)
        assert "timed out" in str(err.value)  # not "aborted": nobody failed
        assert isinstance(err.value, TimeoutError)  # SPMD driver contract


# -- graceful degradation ---------------------------------------------------


def _sst_bridge(tiny_solver, tmp_path, fallback):
    """A bridge streaming into a broker nobody reads (dead endpoint)."""
    from repro.insitu.bridge import Bridge
    from repro.sensei.analyses.adios_adaptor import ADIOSAnalysisAdaptor

    broker = SSTBroker(num_writers=1, queue_limit=1)
    retry = RetryPolicy(max_attempts=2, base_delay=0.001, attempt_timeout=0.01)
    engine = SSTWriterEngine("s", broker, 0, retry=retry)
    adios = ADIOSAnalysisAdaptor(
        tiny_solver.comm, engine, mesh_name="mesh", arrays=("pressure",)
    )
    bridge = Bridge(
        tiny_solver,
        analysis=adios,
        fallback=fallback,
        fallback_dir=tmp_path / "fallback",
    )
    return bridge, broker


class TestGracefulDegradation:
    def test_degrades_to_checkpoint_and_keeps_stepping(self, tiny_solver, tmp_path):
        bridge, broker = _sst_bridge(tiny_solver, tmp_path, "checkpoint")
        for _ in range(3):
            report = tiny_solver.step()
            assert bridge.update(report.step, report.time) is True
        bridge.finalize()
        # step 1 fit the queue; steps 2 and 3 degraded to local .fld dumps
        assert bridge.degraded_steps == 2
        assert bridge.transport_down
        assert bridge.fallback_bytes > 0
        dumps = list((tmp_path / "fallback").iterdir())
        assert len(dumps) == 2
        # degradation marked the endpoint down so peers fail fast
        assert broker.endpoint_down

    def test_drop_fallback_skips_without_files(self, tiny_solver, tmp_path):
        bridge, _ = _sst_bridge(tiny_solver, tmp_path, "drop")
        for _ in range(3):
            report = tiny_solver.step()
            assert bridge.update(report.step, report.time) is True
        bridge.finalize()
        assert bridge.degraded_steps == 2
        assert bridge.fallback_bytes == 0
        assert not (tmp_path / "fallback").exists()

    def test_raise_fallback_preserves_seed_behavior(self, tiny_solver, tmp_path):
        bridge, _ = _sst_bridge(tiny_solver, tmp_path, "raise")
        report = tiny_solver.step()
        assert bridge.update(report.step, report.time) is True
        report = tiny_solver.step()
        with pytest.raises(EndpointDownError):
            bridge.update(report.step, report.time)

    def test_invalid_fallback_rejected(self, tiny_solver):
        from repro.insitu.bridge import Bridge

        with pytest.raises(ValueError):
            Bridge(tiny_solver, config_xml="<sensei></sensei>", fallback="pray")


# -- the acceptance scenario ------------------------------------------------


def _faulted_intransit(output_dir, steps, crash_step, corrupt_probability,
                       seed):
    """RBC at 4 writers : 1 endpoint whose sole endpoint crashes at
    `crash_step` while payloads are corrupted in flight; returns the
    per-rank results and the broker's FaultLog."""
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.parallel import run_spmd

    def case_builder(nsim):
        case = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3,
                                    dt=1e-3)
        return case.with_overrides(num_steps=steps)

    injector = FaultInjector(
        seed=seed,
        probabilities={"corrupt_payload": corrupt_probability},
        schedule={"endpoint_crash": (crash_step,)},
    )
    runner = InTransitRunner(
        case_builder, mode="checkpoint", ratio=4, num_steps=steps,
        stream_interval=1, arrays=("temperature", "velocity_magnitude"),
        queue_limit=2, queue_full_policy="Block", output_dir=output_dir,
        image_size=64, injector=injector,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, attempt_timeout=0.1),
        fallback="checkpoint",
    )
    return run_spmd(5, runner.run), injector.log


@pytest.mark.timeout(120)
class TestFaultedInTransitRun:
    def test_endpoint_crash_run_completes_with_full_accounting(self, tmp_path):
        """4 writers : 1 endpoint, endpoint crash mid-run + in-flight
        corruption: every sim rank completes every timestep, writers
        degrade to checkpoint fallback, and the FaultLog accounts for
        every injected fault."""
        results, log = _faulted_intransit(
            tmp_path, steps=8, crash_step=3,
            corrupt_probability=0.25,  # high enough to observe detections
            seed=7,
        )
        sims = [r for r in results if r.role == "simulation"]
        ends = [r for r in results if r.role == "endpoint"]
        assert len(sims) == 4 and len(ends) == 1

        # the run is never lost: all timesteps complete on every writer
        assert all(r.steps == 8 for r in sims)
        # the endpoint did crash mid-run
        assert ends[0].extra["crashed"]
        assert ends[0].steps < 8

        # degradation kicked in past the retry budget
        snap = log.snapshot()
        assert snap["injected"]["endpoint_crash"] == 1
        assert snap["degraded"]["endpoint_crash"] == 1
        assert snap["retries"] > 0
        assert sum(r.extra["degraded_steps"] for r in sims) > 0
        fallback_dumps = list((tmp_path / "fallback").iterdir())
        assert len(fallback_dumps) == sum(r.extra["degraded_steps"] for r in sims)

        # corruption was detected and skipped, never propagated
        assert snap["injected"].get("corrupt_payload", 0) > 0
        assert snap["detected"].get("corrupt_payload", 0) == snap["injected"][
            "corrupt_payload"
        ]

        # the accounting identity: injected == detected + recovered + degraded
        assert log.accounted

    def test_same_seed_reproduces_fault_counts(self, tmp_path):
        kw = dict(steps=5, crash_step=2, corrupt_probability=0.3, seed=13)
        _, a = _faulted_intransit(tmp_path / "a", **kw)
        _, b = _faulted_intransit(tmp_path / "b", **kw)
        assert a.snapshot()["injected"] == b.snapshot()["injected"]


# -- endpoint empty-step handling -------------------------------------------


class TestEmptyStreamStep:
    def test_all_corrupt_step_skipped_by_endpoint_loop(self):
        """A step whose every payload was corrupted in flight never becomes
        a render task, and an empty payload set is a no-op for the
        endpoint adaptor."""
        from repro.insitu.streamed import StreamedDataAdaptor
        from repro.parallel import SerialCommunicator

        inj = FaultInjector(seed=0, schedule={"corrupt_payload": (0,)})
        broker = SSTBroker(num_writers=2, injector=inj)
        for w in range(2):
            eng = SSTWriterEngine("s", broker, w)
            eng.set_step_info(0, 0.0)
            eng.begin_step()
            eng.put("u", np.arange(3.0))
            eng.end_step()
            eng.close()
        coord, tasks = _drain_fleet(broker)
        assert tasks == [] and coord.corrupt_steps == 2
        adaptor = StreamedDataAdaptor(SerialCommunicator())
        assert adaptor.consume({}) is False
        assert adaptor.empty_steps == 1
