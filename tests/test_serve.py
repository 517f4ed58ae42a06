"""Tests for repro.serve: frame store, sessions, hub surface, steering.

Unit layers first (store / session on a bare pump / the hub surface;
the running pump thread and the recorded flat-hub golden sequences live
in test_serve_mesh.py), then the acceptance scenarios from the serving
design: backpressure that never stalls the publisher, loopback frames
byte-identical to the on-disk PNGs, and steering commands applied
collectively at step boundaries.
"""

import threading

import numpy as np
import pytest

from repro.insitu import Bridge
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case, pebble_bed_case
from repro.parallel import SerialCommunicator, run_spmd
from repro.serve import (
    STEER_KINDS,
    FrameStore,
    HubFull,
    LoopbackClient,
    MeshSession,
    SessionPump,
    SteerCommand,
    SteeringBus,
    SteeringEndpoint,
    attach_serving,
)
from test_serve_mesh import FakeClock, _frame, _png, _quiet_mesh

#: a threadless hub: settle() fans out on the caller's thread
_quiet_hub = _quiet_mesh


# ---------------------------------------------------------------------------
# FrameStore
# ---------------------------------------------------------------------------


class TestFrameStore:
    def test_latest_and_ring(self):
        store = FrameStore(history=3)
        for i in range(5):
            store.put("s", step=i, time=i * 0.1, data=_png(i), seq=i)
        assert store.latest("s").step == 4
        assert [f.step for f in store.frames("s")] == [2, 3, 4]
        assert store.streams() == ["s"]
        assert store.latest("other") is None

    def test_dedup_interns_identical_payloads(self):
        store = FrameStore(history=8)
        a = store.put("s", 0, 0.0, _png(7), seq=0)
        b = store.put("s", 1, 0.1, _png(7), seq=1)
        assert store.frames_deduped == 1
        assert a.data is b.data          # one interned payload, shared
        assert a.digest == b.digest

    def test_payload_bytes_is_dedup_aware(self):
        store = FrameStore(history=8)
        payload = _png(3)
        for i in range(4):
            store.put("s", i, 0.0, payload, seq=i)
        assert store.payload_bytes == len(payload)

    def test_eviction_releases_interned_payloads(self):
        store = FrameStore(history=2)
        for i in range(6):
            store.put("s", i, 0.0, _png(i), seq=i)  # all distinct
        # only the two ring frames remain interned
        assert store.payload_bytes == sum(f.nbytes for f in store.frames("s"))

    def test_stats(self):
        store = FrameStore(history=4)
        store.put("a", 0, 0.0, _png(0), seq=0)
        store.put("b", 0, 0.0, _png(1), seq=1)
        stats = store.stats()
        assert stats["streams"] == ["a", "b"]
        assert stats["frames_stored"] == 2
        assert stats["ring_depth"] == {"a": 1, "b": 1}

    def test_history_validation(self):
        with pytest.raises(ValueError):
            FrameStore(history=0)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


def _session(clock=None, **kw):
    """A session on a bare pump, and an ``offer`` that ingests one frame
    and runs one service pass (what the pump thread does)."""
    clocked = {"clock": clock} if clock is not None else {}
    pump = SessionPump(FrameStore(history=8), **clocked)
    session = MeshSession(0, **kw, **clocked)
    pump.attach(session)

    def offer(frame):
        pump.ingest(frame)
        pump.pump_once()

    return session, offer


class TestSession:
    def test_drop_to_latest_keeps_newest(self):
        s, offer = _session(depth=2)
        for i in range(5):
            offer(_frame(i))
        assert [f.step for f in s.drain()] == [3, 4]
        assert s.stats.dropped == 3
        assert s.stats.offered == 5

    def test_delivered_steps_strictly_increasing(self):
        s, offer = _session(depth=2)
        delivered = []
        for i in range(20):
            offer(_frame(i))
            if i % 3 == 0:                # slow consumer wakes sometimes
                delivered.extend(f.step for f in s.drain())
        delivered.extend(f.step for f in s.drain())
        assert delivered == sorted(delivered)
        assert len(set(delivered)) == len(delivered)

    def test_stream_filter(self):
        s, offer = _session(streams=("a",), depth=8)
        offer(_frame(0, stream="a"))
        offer(_frame(1, stream="b"))
        assert [f.stream for f in s.drain()] == ["a"]
        assert s.stats.offered == 1       # unwanted streams aren't offers

    def test_rate_limit_defers_newest(self):
        clock = FakeClock()
        s, offer = _session(clock, depth=8, max_fps=10)
        offer(_frame(0))                   # enqueued at t=0
        clock.now = 0.01
        offer(_frame(1))                   # inside the interval: deferred
        clock.now = 0.02
        offer(_frame(2))                   # supersedes frame 1
        assert s.stats.rate_limited == 1
        assert [f.step for f in s.drain()] == [0]
        clock.now = 0.2                    # interval elapsed: promote
        assert [f.step for f in s.drain()] == [2]
        assert s.stats.delivered == 2

    def test_take_timeout_returns_none(self):
        s, _offer = _session()
        assert s.take(timeout=0.05) is None
        assert MeshSession(1).take(timeout=5.0) is None    # never attached

    def test_take_blocks_until_offer(self):
        s, offer = _session()
        got = []
        t = threading.Thread(target=lambda: got.append(s.take(timeout=5.0)))
        t.start()
        offer(_frame(9))
        t.join(5.0)
        assert got and got[0].step == 9

    def test_closed_session_rejects_offers(self):
        s, offer = _session()
        s.close()
        offer(_frame(0))
        assert s.stats.offered == 0
        assert s.take(block=False) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            _session(depth=0)
        with pytest.raises(ValueError):
            _session(max_fps=0)


# ---------------------------------------------------------------------------
# The hub surface
# ---------------------------------------------------------------------------


class TestFrameHub:
    def test_publish_fans_out_to_all_sessions(self):
        hub = _quiet_hub()
        a = hub.connect(depth=8)
        b = hub.connect(depth=8)
        hub.publish("s", 0, 0.0, _png(0))
        hub.publish("s", 1, 0.1, _png(1))
        hub.settle()
        assert [f.step for f in a.drain()] == [0, 1]
        assert [f.step for f in b.drain()] == [0, 1]
        assert hub.frames_published == 2

    def test_shared_payload_across_sessions(self):
        hub = _quiet_hub()
        a = hub.connect(depth=8)
        b = hub.connect(depth=8)
        hub.publish("s", 0, 0.0, _png(0))
        hub.settle()
        fa, fb = a.drain()[0], b.drain()[0]
        assert fa.data is fb.data          # interned once, shared

    def test_max_clients_enforced(self):
        hub = _quiet_hub(max_clients=2)
        hub.connect()
        hub.connect()
        with pytest.raises(HubFull):
            hub.connect()

    def test_disconnect_frees_a_slot(self):
        hub = _quiet_hub(max_clients=1)
        s = hub.connect()
        hub.disconnect(s)
        hub.connect()                      # no raise
        assert hub.peak_clients == 1

    def test_closed_hub_refuses_connections(self):
        hub = _quiet_hub()
        hub.close()
        with pytest.raises(HubFull):
            hub.connect()

    def test_session_close_frees_the_slot_immediately(self):
        # churn regression: a client that closes its own session (no
        # hub.disconnect round-trip, e.g. a viewer dropping mid-publish)
        # must release its budget slot at close time, not at the next
        # hub sweep — otherwise reconnect churn wedges at max_clients
        hub = _quiet_hub(max_clients=1)
        s = hub.connect(label="churny")
        hub.publish("s", 0, 0.0, _png(0))
        s.close()
        assert hub.clients == 0
        hub.connect(label="churny")        # immediate reconnect: no raise

    def test_mid_publish_disconnect_releases_budget(self):
        # the disconnect lands between two publishes; the very next
        # connect must succeed even though the hub never ran a sweep
        hub = _quiet_hub(max_clients=2)
        a = hub.connect(label="a")
        b = hub.connect(label="b")
        hub.publish("s", 0, 0.0, _png(0))
        hub.settle()
        b.close()
        c = hub.connect(label="c")
        hub.publish("s", 1, 0.0, _png(1))
        hub.settle()
        assert [f.step for f in a.drain()] == [0, 1]
        assert [f.step for f in c.drain()] == [1]

    def test_stats_shape(self):
        hub = _quiet_hub()
        hub.connect(label="viewer")
        hub.publish("s", 0, 0.0, _png(0))
        hub.settle()
        stats = hub.stats()
        assert stats["clients"] == 1
        assert stats["frames_published"] == 1
        assert stats["stalls"] == 0
        assert stats["pump"]["clients"] == 1
        assert stats["pump"]["frames_ingested"] == 1
        assert stats["store"]["frames_stored"] == 1


# ---------------------------------------------------------------------------
# Backpressure acceptance
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_slow_client_skips_fast_client_does_not(self):
        """The SST-Discard analog: a slow viewer sees a strictly
        increasing subsequence of steps (frames skipped, never
        reordered or duplicated); a fast viewer sees every frame; the
        publisher never blocks on either."""
        nframes = 60
        hub = _quiet_hub(default_depth=2, stall_threshold_s=0.25)
        fast = hub.connect(depth=nframes, label="fast")
        slow = hub.connect(depth=2, label="slow")
        slow_steps = []
        for i in range(nframes):
            hub.publish("s", i, i * 0.01, _png(i % 4))
            if i % 7 == 0:                 # slow viewer wakes rarely
                hub.settle()
                slow_steps.extend(f.step for f in slow.drain())
        hub.settle()
        slow_steps.extend(f.step for f in slow.drain())

        assert [f.step for f in fast.drain()] == list(range(nframes))
        assert slow_steps == sorted(set(slow_steps))
        assert len(slow_steps) < nframes
        assert slow.stats.dropped > 0
        assert hub.stalls == 0

    def test_publisher_latency_is_bounded_by_slow_clients(self):
        """Publishing to 50 never-draining clients must stay in the
        non-blocking regime — the guard the hub's stall counter
        formalizes (style of the telemetry overhead check: generous
        bound, hard invariant)."""
        hub = _quiet_hub(default_depth=2)
        for i in range(50):
            hub.connect(label=f"stuck-{i}")
        for i in range(30):
            hub.publish("s", i, 0.0, _png(i % 4))
        assert hub.stalls == 0
        assert hub.max_publish_s < hub.stall_threshold_s


# ---------------------------------------------------------------------------
# End-to-end: loopback frames byte-identical to the on-disk PNGs
# ---------------------------------------------------------------------------


PEBBLE_XML = """
<sensei>
  <analysis type="catalyst" mesh="uniform" array="temperature"
            slice_axis="y" width="64" height="64" frequency="1"
            name="pebble"/>
</sensei>
"""


def _served_run(case, xml, hub, out, nranks):
    """Run `case` with `xml`'s Catalyst pipelines publishing into `hub`."""
    def body(comm):
        solver = NekRSSolver(case, comm)
        bridge = Bridge(solver, config_xml=xml, output_dir=out)
        attach_serving(bridge.analysis, hub, comm=comm)
        solver.run(observer=bridge.observer)
        bridge.finalize()

    run_spmd(nranks, body)
    hub.settle()


def _assert_match_disk(frames, out):
    for frame in frames:
        disk = (out / f"{frame.stream}_{frame.step:06d}.png").read_bytes()
        assert frame.data == disk


class TestLoopbackByteIdentical:
    def test_streamed_frames_match_disk(self, tmp_path):
        """Pebble-bed analog, 2 ranks: every frame the loopback client
        receives is byte-identical to the PNG the Catalyst adaptor
        wrote for that step (encode-once)."""
        hub = _quiet_hub(history=16)
        client = LoopbackClient(hub, depth=64, label="viewer")
        case = pebble_bed_case(
            num_pebbles=3, elements_per_unit=2, order=3, num_steps=3
        )
        _served_run(case, PEBBLE_XML, hub, tmp_path, nranks=2)
        client.drain()
        assert len(client.frames) == 3
        _assert_match_disk(client.frames, tmp_path)

    def test_history_replay_matches_disk(self, tmp_path):
        """The replay ring holds the same bytes, oldest first."""
        hub = _quiet_hub(history=16)
        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3,
                               num_steps=3)
        xml = ('<sensei><analysis type="catalyst" mesh="uniform" '
               'array="pressure" slice_axis="y" width="48" height="48" '
               'frequency="1" name="cav"/></sensei>')
        _served_run(case, xml, hub, tmp_path, nranks=1)
        frames = hub.relay_replay("cav_slice0_pressure")
        assert [f.step for f in frames] == [1, 2, 3]
        _assert_match_disk(frames, tmp_path)


# ---------------------------------------------------------------------------
# Steering
# ---------------------------------------------------------------------------


CONTOUR_XML = """
<sensei>
  <analysis type="catalyst" mesh="uniform" array="velocity_magnitude"
            isovalue="0.2" slice_axis="y" width="64" height="64"
            frequency="1" name="steer"/>
</sensei>
"""


def _steered_run(tmp_path, hub, bus, nranks=2, steps=3, commands=()):
    case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3,
                           num_steps=steps)
    for cmd in commands:
        bus.submit(cmd)

    def body(comm):
        solver = NekRSSolver(case, comm)
        bridge = Bridge(solver, config_xml=CONTOUR_XML, output_dir=tmp_path)
        endpoint = attach_serving(bridge.analysis, hub, bus, comm=comm)
        reports = solver.run(observer=bridge.observer)
        bridge.finalize()
        return {
            "steps": len(reports),
            "stopped_at": endpoint.stopped_at,
            "applied": endpoint.commands_applied,
            "stop_requested": bridge.stop_requested,
        }

    return run_spmd(nranks, body)


class TestSteering:
    def test_command_validation(self):
        with pytest.raises(ValueError):
            SteerCommand(kind="warp")
        for kind in STEER_KINDS:
            SteerCommand(kind=kind, value=1.0)

    def test_stop_halts_all_ranks_at_next_boundary(self, tmp_path):
        hub, bus = _quiet_hub(), SteeringBus()
        results = _steered_run(
            tmp_path, hub, bus, nranks=2, steps=5,
            commands=[SteerCommand(kind="stop", client="test")],
        )
        # steering runs before the first render: the stop lands at the
        # first step boundary, identically on both ranks
        assert [r["steps"] for r in results] == [1, 1]
        assert all(r["stopped_at"] == 1 for r in results)
        assert all(r["stop_requested"] for r in results)
        assert bus.applied and bus.applied[0].kind == "stop"

    def test_isovalue_changes_next_frame(self, tmp_path):
        baseline_hub = _quiet_hub()
        _steered_run(tmp_path / "a", baseline_hub, SteeringBus(), nranks=2)
        steered_hub, bus = _quiet_hub(), SteeringBus()
        _steered_run(
            tmp_path / "b", steered_hub, bus, nranks=2,
            commands=[SteerCommand(kind="isovalue", value=0.05)],
        )
        base = {f.step: f.data for f in baseline_hub.store.frames("steer_surface")}
        steered = {f.step: f.data for f in steered_hub.store.frames("steer_surface")}
        assert base.keys() == steered.keys()
        # the command applied before step 1's render: every frame differs
        assert all(steered[s] != base[s] for s in base)

    def test_pause_resume_roundtrip(self, tmp_path):
        hub, bus = _quiet_hub(), SteeringBus()
        bus.submit(SteerCommand(kind="pause", client="test"))
        timer = threading.Timer(
            0.25, lambda: bus.submit(SteerCommand(kind="resume", client="test"))
        )
        timer.start()
        try:
            results = _steered_run(tmp_path, hub, bus, nranks=2, steps=3)
        finally:
            timer.cancel()
        assert [r["steps"] for r in results] == [3, 3]   # resumed, ran out
        kinds = [c.kind for c in bus.applied]
        assert kinds[:2] == ["pause", "resume"]

    def test_parameter_application_unit(self):
        from repro.catalyst.pipeline import RenderPipeline, RenderSpec

        pipe = RenderPipeline(specs=[
            RenderSpec(kind="contour", array="q", isovalue=0.5),
            RenderSpec(kind="slice", array="q", axis="y"),
        ])
        endpoint = SteeringEndpoint(SerialCommunicator(), SteeringBus(),
                                    pipelines=[pipe])
        endpoint._apply(SteerCommand(kind="isovalue", value=0.9))
        assert pipe.specs[0].isovalue == 0.9
        assert pipe.specs[1].kind == "slice"            # untouched
        endpoint._apply(SteerCommand(kind="colormap", value="plasma"))
        assert all(s.colormap == "plasma" for s in pipe.specs)
        before = pipe.view_direction
        endpoint._apply(SteerCommand(kind="camera_orbit", value=90.0))
        after = pipe.view_direction
        assert after != before
        assert after[2] == pytest.approx(before[2])      # z preserved
        assert np.hypot(after[0], after[1]) == pytest.approx(
            np.hypot(before[0], before[1])
        )

    def test_loopback_steer_requires_bus(self):
        hub = _quiet_hub()
        client = LoopbackClient(hub)
        with pytest.raises(RuntimeError):
            client.steer("stop")
        client.close()


# ---------------------------------------------------------------------------
# Steering trips observability
# ---------------------------------------------------------------------------


class TestSteeringTrips:
    def _tripping_run(self, session, guard_xml, nan=False):
        from repro.observe.session import active

        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=1e-2,
                               num_steps=3)
        comm = SerialCommunicator()
        with active(session.rank(0)):
            solver = NekRSSolver(case, comm)
            bridge = Bridge(solver, config_xml=guard_xml, output_dir=".")
            report = solver.step()
            if nan:
                solver.u[:] = np.nan
            return bridge.update(report.step, report.time)

    def test_divergence_guard_counts_runaway_norm(self):
        from repro.observe import TelemetrySession

        session = TelemetrySession("trips")
        # a healthy lid cavity has |u| ~ 1, far above this limit
        xml = ('<sensei><analysis type="divergence_guard" '
               'array="velocity_magnitude" limit="1e-6"/></sensei>')
        assert self._tripping_run(session, xml) is False
        metrics = session.merged_metrics().to_json()["metrics"]
        assert metrics["repro_steering_trips_runaway_norm_total"]["value"] == 1
        instants = [e for e in session.events()
                    if getattr(e, "name", "") == "steering.trip"]
        assert instants and instants[0].args["reason"] == "runaway_norm"

    def test_divergence_guard_counts_nan(self):
        from repro.observe import TelemetrySession

        session = TelemetrySession("trips")
        xml = ('<sensei><analysis type="divergence_guard" '
               'array="velocity_magnitude" limit="1e6"/></sensei>')
        assert self._tripping_run(session, xml, nan=True) is False
        metrics = session.merged_metrics().to_json()["metrics"]
        assert metrics["repro_steering_trips_nan_total"]["value"] == 1

    def test_steady_state_counts_steady(self, tmp_path):
        from repro.observe import TelemetrySession
        from repro.observe.session import active
        from repro.insitu.adaptor import NekDataAdaptor
        from repro.sensei.analyses.steering import SteadyStateDetector

        session = TelemetrySession("trips")
        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=1e-2)
        comm = SerialCommunicator()
        with active(session.rank(0)):
            solver = NekRSSolver(case, comm)
            solver.step()              # non-zero pressure, else change=inf
            adaptor = NekDataAdaptor(solver)
            adaptor.set_data_time_step(1)
            det = SteadyStateDetector(comm, array_name="pressure",
                                      tolerance=1e-9, patience=1)
            assert det.execute(adaptor) is True
            assert det.execute(adaptor) is False
        metrics = session.merged_metrics().to_json()["metrics"]
        assert metrics["repro_steering_trips_steady_total"]["value"] == 1

    def test_record_trip_rejects_unknown_reason(self):
        from repro.sensei.analyses.steering import record_trip

        for reason in ("gremlins", "trigger"):
            with pytest.raises(ValueError):
                record_trip(SerialCommunicator(), reason, step=1)
