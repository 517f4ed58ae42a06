"""Live telemetry plane tests: correlation, SLOs, exports, overhead.

The acceptance contract of ``repro.observe.live``:

- a fleet in-transit run reconstructs a complete seven-stage
  :class:`StepTimeline` for every committed step, with attributed
  stage seconds summing to no more than the step's wall time;
- ``/metrics``, ``/healthz``, ``/slo`` and ``/timeline`` serve live
  data from a running ``HttpFrameServer`` mid-run;
- an injected endpoint crash fires the recovery-time SLO alert, and
  the dead endpoint's trace track is finalized at detection time;
- every stage of every step is recorded, even when the clock makes
  recording look costly, and rendered artifacts are byte-identical
  with the plane on or off;
- ``observe top --url`` renders a frame against ``repro serve``'s
  server and exits 2 with one line against a server without a plane.

Marked ``observe``; the end-to-end classes reuse the ``fleet`` test
idiom (threaded SPMD ranks, seeded injector schedules).
"""

import json
import threading
import time

import pytest

from repro.faults import FaultInjector, RetryPolicy
from repro.fleet import FleetConfig
from repro.fleet import ring as hash_ring
from repro.insitu import InTransitRunner
from repro.nekrs.cases import weak_scaled_rbc_case
from repro.observe import TelemetrySession, naming_violations
from repro.observe.live import (
    STAGES,
    LiveAggregator,
    LivePlane,
    SLOSpec,
    SLOWatchdog,
    Snapshot,
    StageEvent,
    StepTag,
    WireMark,
    build_timeline,
    default_slos,
)
from repro.parallel import run_spmd
from repro.serve import HttpFrameServer, ServeMesh, SteeringBus
from test_serve_transport import _get as _http_get

pytestmark = [pytest.mark.observe, pytest.mark.timeout(180)]


def _runner(tmp, session, steps=3, injector=None, retry=None, fleet=None):
    def case_builder(nsim):
        c = weak_scaled_rbc_case(nsim, elements_per_rank=2, order=3, dt=1e-3)
        return c.with_overrides(num_steps=steps)

    return InTransitRunner(
        case_builder,
        mode="catalyst",
        ratio=2,
        num_steps=steps,
        stream_interval=1,
        arrays=("temperature",),
        output_dir=tmp,
        image_size=48,
        session=session,
        injector=injector,
        retry=retry,
        fleet=fleet if fleet is not None else FleetConfig(),
    )


# -- unit: correlation tags and timelines -----------------------------------


class TestStepTag:
    def test_roundtrip(self):
        tag = StepTag(run_id="fleet-0007", step=12, stream=3)
        assert StepTag.decode(tag.encode()) == tag

    def test_run_id_may_contain_colons(self):
        tag = StepTag(run_id="lab:fleet-1", step=2, stream=0)
        assert StepTag.decode(tag.encode()) == tag


class TestTimelineAttribution:
    def test_overlap_charged_to_downstream_stage_once(self):
        events = [
            StageEvent(stage="solve", step=1, t0=0.0, t1=1.0),
            StageEvent(stage="marshal", step=1, t0=0.5, t1=1.5),
        ]
        tl = build_timeline("r", 1, events)
        att = tl.attributed_seconds
        # [0.5, 1.0) is covered by both; marshal (downstream) wins
        assert att["solve"] == pytest.approx(0.5)
        assert att["marshal"] == pytest.approx(1.0)
        assert sum(att.values()) == pytest.approx(tl.wall_seconds)

    def test_attributed_total_bounded_by_wall(self):
        events = [
            StageEvent(stage=s, step=1, t0=i * 0.1, t1=i * 0.1 + 0.15)
            for i, s in enumerate(STAGES)
        ]
        tl = build_timeline("r", 1, events)
        assert tl.complete
        assert sum(tl.attributed_seconds.values()) <= tl.wall_seconds + 1e-12

    def test_gaps_are_not_attributed(self):
        events = [
            StageEvent(stage="solve", step=1, t0=0.0, t1=0.2),
            StageEvent(stage="deliver", step=1, t0=0.8, t1=1.0),
        ]
        tl = build_timeline("r", 1, events)
        assert not tl.complete
        assert sum(tl.attributed_seconds.values()) == pytest.approx(0.4)
        assert tl.wall_seconds == pytest.approx(1.0)

    def test_to_json_shape(self):
        tl = build_timeline(
            "r", 4, [StageEvent(stage="solve", step=4, t0=0.0, t1=0.1)]
        )
        doc = tl.to_json()
        assert doc["run_id"] == "r" and doc["step"] == 4
        assert doc["stages"] == ["solve"] and not doc["complete"]
        assert doc["attributed_total"] <= doc["wall_seconds"] + 1e-12
        assert doc["events"][0]["stage"] == "solve"


# -- unit: aggregator wire pairing ------------------------------------------


class TestWirePairing:
    def _agg(self):
        return LiveAggregator("run-x")

    def test_put_then_got_builds_wire_stage(self):
        agg = self._agg()
        agg.ingest(Snapshot(
            rank=0, seq=0,
            wire_marks=(WireMark("put", step=1, stream=0, t=10.0,
                                 nbytes=100, rank=0),),
            counts={"wire_put_bytes": 100},
        ))
        assert agg.timeline(1) is None       # half a wire is no event
        agg.ingest(Snapshot(
            rank=2, seq=0,
            wire_marks=(WireMark("got", step=1, stream=0, t=10.25,
                                 nbytes=100, rank=2),),
            counts={"wire_got_bytes": 100},
        ))
        tl = agg.timeline(1)
        (wire,) = [e for e in tl.events if e.stage == "wire"]
        assert wire.rank == 2                # attributed to the consumer
        assert wire.seconds == pytest.approx(0.25)
        assert agg.bytes_put == agg.bytes_got == 100
        assert agg.bytes_on_wire == 0

    def test_got_before_put_pairs_out_of_order(self):
        agg = self._agg()
        agg.ingest(Snapshot(
            rank=2, seq=0,
            wire_marks=(WireMark("got", step=3, stream=1, t=5.5, nbytes=0, rank=2),),
        ))
        agg.ingest(Snapshot(
            rank=1, seq=0,
            wire_marks=(WireMark("put", step=3, stream=1, t=5.0, nbytes=0, rank=1),),
        ))
        (wire,) = [e for e in agg.timeline(3).events if e.stage == "wire"]
        assert wire.t0 == 5.0 and wire.t1 == 5.5

    def test_wire_duration_never_negative(self):
        agg = self._agg()
        agg.ingest(Snapshot(
            rank=0, seq=0,
            wire_marks=(WireMark("put", step=1, stream=0, t=2.0, nbytes=0),),
        ))
        agg.ingest(Snapshot(
            rank=1, seq=0,
            wire_marks=(WireMark("got", step=1, stream=0, t=1.9, nbytes=0, rank=1),),
        ))
        (wire,) = [e for e in agg.timeline(1).events if e.stage == "wire"]
        assert wire.seconds == 0.0


# -- unit: SLO watchdog -----------------------------------------------------


class TestSLOWatchdog:
    def test_zero_budget_count_slo_fires_and_resolves(self):
        agg = LiveAggregator("r")
        dog = SLOWatchdog(specs=default_slos())
        agg.ingest(Snapshot(rank=0, seq=0, counts={"publish_stall": 1}))
        fired = dog.evaluate(agg)
        assert [a.slo for a in fired] == ["publish_stall"]
        assert len(dog.active) == 1
        # outside the window the count decays and the alert resolves
        later = agg._clock() + 120.0
        assert dog.evaluate(agg, now=later) == []
        assert len(dog.active) == 0
        assert dog.history[0].resolved_at is not None

    def test_step_latency_burn_needs_min_count(self):
        agg = LiveAggregator("r")
        spec = SLOSpec(name="step_latency", kind="step_latency",
                       objective=0.01, budget=0.1)
        dog = SLOWatchdog(specs=(spec,))
        solves = [StageEvent(stage="solve", step=s, t0=0.0, t1=0.5)
                  for s in range(1, 5)]
        agg.ingest(Snapshot(rank=0, seq=0, events=tuple(solves[:3])))
        assert dog.evaluate(agg) == []       # burning, but too few samples
        assert dog.to_json()["burn_rates"]["step_latency"] >= 1.0
        agg.ingest(Snapshot(rank=0, seq=1, events=(solves[3],)))
        assert [a.slo for a in dog.evaluate(agg)] == ["step_latency"]

    def test_recovery_alert_fires_at_detection(self):
        dog = SLOWatchdog(specs=default_slos())   # recovery within 1 s
        alert = dog.recovery_started(eid=2)
        assert alert.active and len(dog.active) == 1
        assert dog.recovery_finished(eid=2, seconds=0.2) is None
        assert len(dog.active) == 0
        assert alert.extra["phase"] == "complete"

    def test_blown_recovery_objective_escalates(self):
        dog = SLOWatchdog(specs=default_slos())   # recovery within 1 s
        dog.recovery_started(eid=1)
        breach = dog.recovery_finished(eid=1, seconds=5.0)
        assert breach is not None and breach.extra["phase"] == "breach"
        assert breach.burn_rate == pytest.approx(5.0)

    def test_alerts_reach_steering_bus_as_advisories(self):
        bus = SteeringBus()
        dog = SLOWatchdog(specs=default_slos(), bus=bus)
        dog.recovery_started(eid=0)
        (cmd,) = bus.drain()
        assert cmd.kind == "advisory"
        assert "endpoint 0" in cmd.value
        assert cmd.client == "slo-watchdog"


# -- metric naming convention (satellite) -----------------------------------


class TestNamingConvention:
    def test_violations_detected(self):
        from repro.observe import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("bad_counter")                 # prefix + suffix wrong
        reg.histogram("repro_thing_ms")            # unit suffix wrong
        reg.gauge("repro_queue_total")             # gauge posing as counter
        problems = naming_violations(reg)
        assert len(problems) == 4
        assert any("repro_ prefix" in p for p in problems)

    def test_clean_registry_passes(self):
        from repro.observe import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("repro_frames_total")
        reg.histogram("repro_step_seconds")
        reg.histogram("repro_payload_bytes")
        reg.gauge("repro_queue_depth")
        assert naming_violations(reg) == []


# -- end-to-end: clean instrumented fleet run -------------------------------


@pytest.fixture(scope="module")
def live_fleet_run(tmp_path_factory):
    """One clean 6-rank catalyst fleet run with the live plane attached."""
    session = TelemetrySession("live-accept")
    plane = LivePlane(session)
    runner = _runner(tmp_path_factory.mktemp("live"), session, steps=3)
    results = run_spmd(6, runner.run)
    plane.flush_all()
    return results, runner, session, plane


class TestLiveFleetAcceptance:
    def test_every_committed_step_has_complete_timeline(self, live_fleet_run):
        _results, runner, _session, plane = live_fleet_run
        committed = runner.last_coordinator.committed
        assert committed == {1, 2, 3}
        for step in sorted(committed):
            tl = plane.timeline(step)
            assert tl is not None, f"step {step} lost its timeline"
            assert tl.complete, (
                f"step {step} missing stages: "
                f"{set(STAGES) - set(tl.stages)}"
            )
            assert sum(tl.attributed_seconds.values()) <= (
                tl.wall_seconds + 1e-9
            )

    def test_stage_order_is_causal_per_step(self, live_fleet_run):
        *_ignored, plane = live_fleet_run
        tl = plane.timeline(1)
        solve = [e for e in tl.events if e.stage == "solve"]
        deliver = [e for e in tl.events if e.stage == "deliver"]
        assert min(e.t0 for e in solve) <= min(e.t0 for e in deliver)
        assert max(e.t1 for e in deliver) == pytest.approx(tl.wall_end)

    def test_all_ranks_reported(self, live_fleet_run):
        results, _runner, _session, plane = live_fleet_run
        num_sim = len([r for r in results if r.role == "simulation"])
        seen = plane.aggregator.ranks_seen
        # every simulation rank flushed snapshots (global-rank keyed);
        # endpoints report only if the ring routed them streams
        assert set(range(num_sim)) <= seen
        assert any(r >= num_sim for r in seen)
        assert seen <= {i for i in range(len(results))}

    def test_wire_bytes_balance(self, live_fleet_run):
        *_ignored, plane = live_fleet_run
        agg = plane.aggregator
        assert agg.bytes_put > 0
        assert agg.bytes_put == agg.bytes_got
        assert agg.bytes_on_wire == 0

    def test_prometheus_export_carries_live_metrics(self, live_fleet_run):
        *_ignored, plane = live_fleet_run
        text = plane.prometheus()
        assert "repro_live_snapshots_total" in text
        assert "repro_live_stage_solve_seconds" in text

    def test_no_metric_name_drift_anywhere(self, live_fleet_run):
        """Registry walk: merged per-rank metrics + the plane's extras."""
        *_ignored, plane = live_fleet_run
        assert naming_violations(plane.merged_metrics()) == []

    def test_live_summary_counts_agree(self, live_fleet_run):
        *_ignored, plane = live_fleet_run
        summary = plane.aggregator.summary()
        assert summary["snapshots"] == plane.aggregator.snapshots > 0
        assert "solve" in summary["stages"]
        assert summary["stages"]["solve"]["count"] >= 3


# -- end-to-end: crash fires the recovery SLO --------------------------------


class TestCrashRecoverySLO:
    def test_endpoint_crash_fires_recovery_alert_autoscaler_observes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(hash_ring, "_SALT", 7)
        steps = 3
        session = TelemetrySession("live-crash")
        plane = LivePlane(session)
        injector = FaultInjector(schedule={"endpoint_crash": ((0, 2),)})
        runner = _runner(
            tmp_path, session, steps=steps, injector=injector,
            retry=RetryPolicy(max_attempts=20, base_delay=0.01,
                              attempt_timeout=0.1),
            fleet=FleetConfig(lease_timeout=0.25),
        )
        results = run_spmd(12, runner.run)
        plane.flush_all()

        coord = runner.last_coordinator
        assert coord.committed == set(range(1, steps + 1))
        assert coord.stats()["crashes_detected"] == 1

        recoveries = [
            a for a in plane.watchdog.history if a.kind == "recovery_time"
        ]
        assert recoveries, "endpoint crash fired no recovery_time alert"
        assert recoveries[0].extra["eid"] == 2
        assert recoveries[0].extra["phase"] in ("complete", "breach")
        assert recoveries[0].resolved_at is not None

        # the dead endpoint's global rank track was finalized at
        # detection time (num_writers + eid), not left dangling
        num_sim = len([r for r in results if r.role == "simulation"])
        assert set(session._finalized) == {num_sim + 2}


# -- end-to-end: live HTTP exports mid-run ----------------------------------


@pytest.mark.serve
class TestLiveHttpExports:
    def test_routes_serve_live_data_mid_run(self, tmp_path):
        session = TelemetrySession("live-http")
        plane = LivePlane(session)
        hub = ServeMesh(relays=1, start=False)
        server = HttpFrameServer(hub, SteeringBus(), live=plane)
        server.start()
        runner = _runner(tmp_path, session, steps=3)
        worker = threading.Thread(target=run_spmd, args=(6, runner.run))
        worker.start()
        try:
            # scrape while the run is in flight; the run outlives at
            # least the first poll round on any machine
            saw_mid_run_health = False
            deadline = time.perf_counter() + 60.0
            while worker.is_alive() and time.perf_counter() < deadline:
                status, _headers, body = _http_get(server, "/healthz")
                assert status == 200
                doc = json.loads(body)
                assert doc["run_id"] == plane.run_id
                saw_mid_run_health = True
                status, _headers, _body = _http_get(server, "/slo")
                assert status == 200
                time.sleep(0.01)
            assert saw_mid_run_health
        finally:
            worker.join()

        status, headers, body = _http_get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"repro_live_snapshots_total" in body

        status, _headers, body = _http_get(server, "/slo")
        doc = json.loads(body)
        assert doc["run_id"] == plane.run_id
        assert "burn_rates" in doc

        status, _headers, body = _http_get(server, "/timeline")
        assert status == 200
        latest = json.loads(body)
        assert latest["complete"]
        step = latest["step"]
        status, _headers, body = _http_get(server, f"/timeline?step={step}")
        assert status == 200 and json.loads(body)["step"] == step

        status, _headers, body = _http_get(server, "/timeline?step=9999")
        assert status == 404
        assert "steps" in json.loads(body)

        status, _headers, _body = _http_get(server, "/timeline?step=bogus")
        assert status == 400
        assert server.stop()

    def test_healthz_without_plane_still_answers(self):
        hub = ServeMesh(relays=1, start=False)
        server = HttpFrameServer(hub)
        server.start()
        try:
            status, _headers, body = _http_get(server, "/healthz")
            assert status == 200
            assert json.loads(body) == {
                "status": "ok", "run_id": None, "live": False,
            }
            status, _headers, _body = _http_get(server, "/metrics")
            assert status == 404
        finally:
            assert server.stop()


# -- overhead: the 5% budget -------------------------------------------------


class TestOverheadBudget:
    @pytest.mark.perf
    def test_live_plane_overhead_under_5pct(self):
        """Median of 12 interleaved bare/instrumented pairs.

        The shared-core container drifts between fast and slow phases
        on a ~1 s timescale and throws occasional ~30 ms scheduler
        spikes, so single pairs are coin flips and even best-of blocks
        can land entirely in a bad phase; the median of a dozen
        adjacent pairs is immune to both.  One re-measure is allowed —
        a genuine >5% regression fails both medians, while a one-off
        noise burst does not take down the suite.  This is the live
        plane's one timing verdict.
        """
        from repro.bench.live_telemetry import measure_overhead

        for _attempt in range(2):
            out = measure_overhead(repeats=12)
            assert out["timelines_complete"] >= 1
            if out["overhead_ratio"] < 0.05:
                break
        assert out["overhead_ratio"] < 0.05, (
            f"live plane cost {out['overhead_ratio'] * 100:.2f}% median "
            f"over {len(out['pair_ratios'])} pairs "
            f"(floors: bare {out['off_s']:.3f}s, "
            f"instrumented {out['on_s']:.3f}s)"
        )


# -- fidelity: telemetry must not change the pixels -------------------------


def _dir_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*.png")) if p.is_file()
    }


class TestArtifactFidelity:
    def test_rendered_pngs_byte_identical_with_plane_on(self, tmp_path):
        plain_dir = tmp_path / "plain"
        live_dir = tmp_path / "live"

        run_spmd(6, _runner(plain_dir, session=None, steps=2).run)

        session = TelemetrySession("live-fidelity")
        plane = LivePlane(session)
        run_spmd(6, _runner(live_dir, session, steps=2).run)
        plane.flush_all()
        assert plane.timeline(1) is not None

        plain = _dir_bytes(plain_dir)
        live = _dir_bytes(live_dir)
        assert plain and plain.keys() == live.keys()
        assert all(plain[k] == live[k] for k in plain)


# -- one clock: a stage is the span that carries it --------------------------


class TestOneClock:
    def test_every_stage_event_is_its_spans_interval(self, tmp_path):
        """Serial pebble run + Bridge under one injected clock.

        The clock counts up from far below zero in exact float steps,
        so a timestamp read from ``time.perf_counter`` (>= 0) anywhere
        on the way would stand out, and ``ts + dur`` is exact.
        """
        from test_observe import FakeClock
        from repro.insitu import Bridge
        from repro.nekrs import NekRSSolver
        from repro.nekrs.cases import pebble_bed_case
        from repro.observe.tracer import SpanEvent
        from repro.parallel import SerialCommunicator

        clock = FakeClock()
        clock.now = -1e6
        session = TelemetrySession("one-clock", clock=clock)
        # every read ticks, so recording looks costly; the plane records
        # every stage event regardless
        plane = LivePlane(session, clock=clock)
        xml = (
            '<sensei><analysis type="catalyst" mesh="uniform" '
            'array="velocity_magnitude" isovalue="0.5" width="48" '
            'height="48" frequency="1"/></sensei>'
        )
        steps = 2
        with session.activate(0):
            case = pebble_bed_case(2, elements_per_unit=2, order=3,
                                   num_steps=steps)
            solver = NekRSSolver(case, SerialCommunicator())
            bridge = Bridge(solver, config_xml=xml, output_dir=tmp_path)
            solver.run(observer=bridge.observer)
            bridge.finalize()
        plane.flush_all()

        spans = [e for e in session.events() if isinstance(e, SpanEvent)]
        intervals = {
            (e.rank, e.args.get("stage"), e.args.get("step"), e.ts, e.ts + e.dur)
            for e in spans
        }
        stage_events = [
            ev for step in range(1, steps + 1)
            for ev in plane.timeline(step).events
        ]
        for stage in ("solve", "render", "composite", "encode", "deliver"):
            found = [ev for ev in stage_events if ev.stage == stage]
            assert found, f"no {stage!r} stage event"
            for ev in found:
                assert (ev.rank, stage, ev.step, ev.t0, ev.t1) in intervals
        # one timeline: nothing sits on a clock the session did not own
        stamps = [t for e in spans for t in (e.ts, e.ts + e.dur)]
        stamps += [t for ev in stage_events for t in (ev.t0, ev.t1)]
        assert max(stamps) < clock.now < 0.0
        # and one step number per step, whoever recorded it
        solver_steps = [e.args["step"] for e in spans if e.name == "solver.step"]
        bridge_steps = [e.args["step"] for e in spans if e.name == "bridge.execute"]
        assert solver_steps == bridge_steps == list(range(1, steps + 1))


# -- session churn (satellite) ----------------------------------------------


class TestSessionChurn:
    def test_mid_run_joiner_gets_own_track_with_late_epoch(self):
        session = TelemetrySession("churn")
        early = session.rank(0)
        time.sleep(0.01)
        late = session.rank(7)
        assert late is not early
        # the pre-join gap is not billed: the joiner's epoch is its
        # join time, strictly after rank 0's
        assert late.tracer.epoch > early.tracer.epoch
        assert 7 not in session._finalized

    def test_finalize_rank_pins_detection_time(self):
        session = TelemetrySession("churn")
        tel = session.rank(3)
        assert session.finalize_rank(3)
        assert session._finalized == {3}
        from repro.observe import InstantEvent

        names = [e.name for e in tel.tracer.events
                 if isinstance(e, InstantEvent)]
        assert names.count("track.finalized") == 1

    def test_finalize_is_idempotent_and_rejects_unknown(self):
        from repro.observe import InstantEvent

        session = TelemetrySession("churn")
        tel = session.rank(1)
        assert session.finalize_rank(1)
        # repeat finalize is a success but records no second instant
        assert session.finalize_rank(1)
        assert session._finalized == {1}
        names = [e.name for e in tel.tracer.events
                 if isinstance(e, InstantEvent)]
        assert names.count("track.finalized") == 1
        assert not session.finalize_rank(99)

    def test_plane_binds_ranks_created_after_attach(self):
        session = TelemetrySession("churn")
        before = session.rank(0)
        plane = LivePlane(session)
        after = session.rank(1)
        assert before.live.enabled and after.live.enabled
        assert before.live._plane is plane is after.live._plane


# -- frame store accounting (satellite) -------------------------------------


class TestFrameStoreAccounting:
    def test_deduped_payload_counted_once(self):
        from repro.serve.framestore import FrameStore

        store = FrameStore(history=8)
        data = b"x" * 1000
        store.put("a", step=0, time=0.0, data=data, seq=0)
        store.put("a", step=1, time=0.1, data=data, seq=1)
        stats = store.stats()
        assert stats["frames_deduped"] == 1
        # two frames share one interned payload: no double count
        assert stats["payload_bytes"] == 1000
        assert stats["peak_payload_bytes"] == 1000

    def test_peak_survives_eviction(self):
        from repro.serve.framestore import FrameStore

        store = FrameStore(history=1)
        store.put("a", step=0, time=0.0, data=b"a" * 500, seq=0)
        store.put("a", step=1, time=0.1, data=b"b" * 900, seq=1)
        store.put("a", step=2, time=0.2, data=b"c" * 100, seq=2)
        stats = store.stats()
        assert stats["payload_bytes"] == 100        # only the live frame
        # HWM caught the moment both old and new payloads were held
        assert stats["peak_payload_bytes"] >= 900

    def test_memory_meter_category_matches_store(self):
        from repro.observe import Telemetry, active
        from repro.serve.framestore import FrameStore

        tel = Telemetry.create(rank=0)
        store = FrameStore(history=4)
        with active(tel):
            for i in range(6):
                store.put("s", step=i, time=i * 0.1,
                          data=bytes([i]) * 256, seq=i)
        peak = tel.memory.peaks().get("serve.framestore", 0)
        assert peak == store.stats()["peak_payload_bytes"] > 0

    def test_mesh_publish_surfaces_framestore_hwm(self):
        from repro.observe import Telemetry, active
        from repro.serve import ServeMesh

        tel = Telemetry.create(rank=0)
        mesh = ServeMesh(relays=1, telemetry=tel, start=False)
        mesh.connect(label="v")
        with active(tel):
            for i in range(6):
                mesh.publish("s", step=i, time=i * 0.1,
                             data=bytes([i]) * 256)
                mesh.settle()
        peak = tel.memory.peaks().get("serve.framestore", 0)
        assert peak == mesh.stats()["store"]["peak_payload_bytes"] > 0


# -- CLI smoke (satellite) --------------------------------------------------


class TestCliObserveTop:
    def test_observe_top_once(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "observe", "top", "--once", "--ranks", "3", "--steps", "2",
            "--output", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro observe top — run" in out
        assert "solve" in out and "deliver" in out
        assert "SLO" in out and "recovery_time" in out

    def test_url_against_repro_serve_renders_a_frame(self, tmp_path, capsys,
                                                     monkeypatch):
        """`repro serve --port` attaches a plane: `observe top --url`
        against it renders the stage table, SLOs and serve line."""
        from repro.cli import main

        codes = []
        real_stop = HttpFrameServer.stop

        def scrape_then_stop(server, *args, **kwargs):
            # the run is over but the server is still up: scrape it
            codes.append(main(["observe", "top", "--url", server.url,
                               "--once"]))
            return real_stop(server, *args, **kwargs)

        monkeypatch.setattr(HttpFrameServer, "stop", scrape_then_stop)
        rc = main([
            "serve", "--case", "cavity", "--ranks", "1", "--steps", "2",
            "--order", "3", "--port", "0", "--output", str(tmp_path),
        ])
        assert rc == 0 and codes == [0]
        out = capsys.readouterr().out
        assert "repro observe top — run serve-" in out
        assert "p50 ms" in out and "recovery_time" in out
        assert "serve: cache" in out
        assert "step 2 (partial" in out     # no wire stage in situ

    def test_url_without_plane_exits_2_with_one_line(self, capsys):
        from repro.cli import main

        server = HttpFrameServer(ServeMesh(relays=1, start=False))
        server.start()
        try:
            rc = main(["observe", "top", "--url", server.url, "--once"])
        finally:
            assert server.stop()
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert f"{server.url}/slo" in line and "404" in line
