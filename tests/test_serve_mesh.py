"""Tests for repro.serve.mesh: the one serving hub and its session pump.

Unit layers first (MeshSession / SessionPump invariants, and the clock
reads of a take), then the hub acceptance scenarios from the serving
design: O(1) publisher wakeups per publish, late joiners and replay
served from the frame store, a pump left unserviced for any length of
time closing no session and refusing no connect, the recorded flat-hub
golden sequences, the cache/drop/delivery counters flowing through the
metric-naming audit, and the HTTP transport's status and steering
routes.
"""

import inspect
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.observe import naming_violations
from repro.observe.session import Telemetry, active
from repro.serve import (
    HttpFrameServer,
    HubFull,
    MeshSession,
    ServeMesh,
    SteeringBus,
)
from repro.serve.framestore import Frame, content_digest
from repro.util.png import encode_png
from test_serve_transport import _get, _post

pytestmark = [pytest.mark.timeout(120)]


def _png(tag: int = 0) -> bytes:
    img = np.full((6, 6, 3), tag % 256, dtype=np.uint8)
    return encode_png(img)


def _frame(step: int, stream: str = "s") -> Frame:
    data = _png(step)
    return Frame(stream=stream, step=step, time=step * 0.1, data=data,
                 digest=content_digest(data), seq=step, published_at=0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _quiet_mesh(**kwargs) -> ServeMesh:
    """A hub with no pump thread.

    start=False runs no thread, so ``settle()`` services the pump on
    the test's thread, deterministically (and there is nothing to
    close() afterwards).
    """
    return ServeMesh(start=False, **kwargs)


# ---------------------------------------------------------------------------
# MeshSession
# ---------------------------------------------------------------------------


class TestMeshSession:
    def test_depth_validation(self):
        with pytest.raises(ValueError):
            MeshSession(0, depth=0)

    def test_max_fps_zero_rejected(self):
        with pytest.raises(ValueError):
            MeshSession(0, max_fps=0)

    def test_max_fps_negative_rejected(self):
        with pytest.raises(ValueError):
            MeshSession(0, max_fps=-5.0)

    def test_seq_cursor_skips_replayed_frames(self):
        # the dedup cursor: re-offering an already-seen frame (a
        # backfilled frame the pump fans out again) is a no-op
        clock = FakeClock()
        mesh = _quiet_mesh(clock=clock)
        s = mesh.connect(label="v")
        mesh.publish("s", step=0, time=0.0, data=_png(0))
        mesh.settle()
        pump = s._pump
        with pump.cond:
            assert s._offer_locked(mesh.store.latest("s"), clock()) is True
        assert [f.step for f in s.drain()] == [0]
        assert s.stats.offered == 1      # the replay never counted

    def test_no_per_delivery_callback(self):
        # delivery is counted on the pump's ledger, not by a callback
        assert "on_delivered" not in inspect.signature(MeshSession).parameters
        assert "_on_delivered" not in MeshSession.__slots__
        assert not hasattr(ServeMesh, "_on_delivered")


# ---------------------------------------------------------------------------
# The take hot path: no clock read for a waiting frame
# ---------------------------------------------------------------------------


class CountingClock(FakeClock):
    """A FakeClock that counts its reads per thread."""

    def __init__(self):
        super().__init__()
        self.reads: dict[int, int] = {}
        self.read = threading.Event()

    def __call__(self) -> float:
        tid = threading.get_ident()
        self.reads[tid] = self.reads.get(tid, 0) + 1
        self.read.set()
        return self.now


class TestTakeHotPath:
    def test_taking_pending_frames_reads_no_clock(self):
        clock = CountingClock()
        mesh = _quiet_mesh(clock=clock)
        s = mesh.connect(label="v", depth=8)
        for step in range(5):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        clock.reads.clear()
        got = [s.take(timeout=5).step for _ in range(3)]
        got += [f.step for f in s.drain()]
        assert got == [0, 1, 2, 3, 4]
        assert clock.reads == {}
        # an empty non-blocking take, or one on a closed session, has
        # nothing to wait for either
        assert s.take(block=False) is None
        s.close()
        assert s.take(timeout=5) is None
        assert clock.reads == {}

    def test_a_blocked_take_reads_the_clock_only_before_waiting(self):
        clock = CountingClock()
        mesh = _quiet_mesh(clock=clock)
        s = mesh.connect(label="v")
        got = []
        taker = threading.Thread(target=lambda: got.append(s.take(timeout=60)),
                                 daemon=True)
        taker.start()
        assert clock.read.wait(60)
        with s._pump.lock:          # held by the taker until it waits
            pass
        mesh.publish("s", step=0, time=0.0, data=_png(0))
        mesh.settle()               # fans out here and notifies the taker
        taker.join(60)
        assert [f.step for f in got] == [0]
        assert clock.reads[taker.ident] == 1
        # a zero timeout reads it once, and gives up without waiting
        clock.reads.clear()
        assert s.take(timeout=0) is None
        assert clock.reads == {threading.get_ident(): 1}


# ---------------------------------------------------------------------------
# Client budget, O(1) publish
# ---------------------------------------------------------------------------


class TestMeshPlacement:
    def test_publish_wakeups_are_o1_per_relay(self):
        # publish cost is O(1), not O(clients): each publish issues
        # exactly one wakeup to the hub's one pump no matter how many
        # sessions it carries
        mesh = _quiet_mesh()
        for i in range(60):
            mesh.connect(label=f"viewer-{i}", depth=8)
        for step in range(5):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        assert mesh.pump.notifies == 5

    def test_max_clients_budget_enforced(self):
        mesh = _quiet_mesh(max_clients=2)
        mesh.connect(label="a")
        b = mesh.connect(label="b")
        with pytest.raises(HubFull):
            mesh.connect(label="c")
        # immediate slot release on disconnect
        mesh.disconnect(b)
        mesh.connect(label="c")

# ---------------------------------------------------------------------------
# The store serves backfill and replay
# ---------------------------------------------------------------------------


class TestEdgeServing:
    def test_late_joiner_backfills_from_the_store(self):
        mesh = _quiet_mesh(history=3)
        for step in range(4):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        published = mesh.frames_published
        s = mesh.connect(label="late", depth=8, backfill=True)
        # served from the store's history ring: the publisher never
        # saw the join
        assert [f.step for f in s.drain()] == [1, 2, 3]
        assert mesh.frames_published == published

    def test_relay_replay_is_the_store_ring(self):
        mesh = _quiet_mesh(history=2)
        for step in range(3):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        # no pump pass needed: replay reads the store directly
        frames = mesh.relay_replay("s")
        assert [f.step for f in frames] == [1, 2]
        assert frames == mesh.store.frames("s")
        assert mesh.relay_replay("other") == []


# ---------------------------------------------------------------------------
# max_fps through the pump
# ---------------------------------------------------------------------------


class TestMaxFpsThroughPump:
    def test_newest_wins_deferred_slot(self):
        clock = FakeClock()
        mesh = _quiet_mesh(clock=clock)
        s = mesh.connect(label="v", max_fps=10.0, depth=4)
        for step in range(3):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        # step 0 enqueued; 1 deferred; 2 supersedes 1 (newest wins)
        assert [f.step for f in s.drain()] == [0]
        assert s.stats.rate_limited == 1
        clock.now += 0.2
        assert [f.step for f in s.drain()] == [2]

    def test_delivered_steps_strictly_increase_across_handoff(self):
        clock = FakeClock()
        mesh = _quiet_mesh(clock=clock)
        for step in range(4):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        # handoff from backfill to fan-out: the store already holds
        # 0..3 while the pump has not fanned any of them out, so the
        # late joiner's backfill takes them and the cursor drops the
        # pump's second offer of each; fresh frames keep flowing
        s = mesh.connect(label="v", depth=16, backfill=True)
        mesh.settle()
        assert [f.step for f in s.drain()] == [0, 1, 2, 3]
        for step in range(4, 7):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        assert [f.step for f in s.drain()] == [4, 5, 6]
        steps = list(s.stats.steps)
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)
        assert s.stats.offered == 7


# ---------------------------------------------------------------------------
# Slow is not dead: the hub has no lease
# ---------------------------------------------------------------------------


class TestSlowPump:
    def test_unserviced_pump_closes_no_session_and_refuses_no_connect(
        self, monkeypatch
    ):
        """A pump starved by the solver ranks is slow, not dead: however
        long it goes unserviced, every viewer stays connected, new ones
        get in, and the frames reach them once the pump runs.  Every
        clock the hub could read is the fake one."""
        clock = FakeClock()
        monkeypatch.setattr(time, "monotonic", clock)
        mesh = _quiet_mesh(clock=clock)
        sessions = [mesh.connect(label=f"viewer-{i}", depth=8) for i in range(3)]
        mesh.publish("s", step=0, time=0.0, data=_png(0))
        for step, gap in enumerate((0.3, 60.0, 1e6), start=1):
            clock.now += gap
            mesh.publish("s", step=step, time=0.0, data=_png(step))
            sessions.append(mesh.connect(label=f"late-{step}", depth=8))
        assert not any(s.closed for s in sessions)
        assert mesh.clients == len(sessions)
        mesh.settle()
        # the pump never ran before now, so everyone attached gets all
        for s in sessions:
            assert [f.step for f in s.drain()] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# settle(): the one synchronisation point
# ---------------------------------------------------------------------------


class TestSettle:
    def test_close_delivers_everything_published_to_started_relays(self):
        # close() used to stop the pump threads with frames still in
        # their inboxes; it settles first now.  A short switch
        # interval: a frame lost between the lock-free inbox, the wake
        # event and the settle wait would break the sequence
        nframes = 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mesh = ServeMesh()
            sessions = [
                mesh.connect(label=f"viewer-{i}", depth=nframes)
                for i in range(12)
            ]
            for step in range(nframes):
                mesh.publish("s", step=step, time=0.0, data=_png(step))
            mesh.close()
        finally:
            sys.setswitchinterval(interval)
        for s in sessions:
            assert [f.step for f in s.drain()] == list(range(nframes))

# ---------------------------------------------------------------------------
# Golden sequences recorded from the retired flat hub
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("golden_serve_sequences.json")


def _golden_scenario(hub, clock, settle) -> dict:
    """One fixed publish/connect/drain script; what every client saw.

    Depth 1/2/8 queues drained at different cadences, a ``max_fps``
    client under the fake clock, a stream filter, disconnect/reconnect
    churn and a ``max_clients`` refusal.  ``hub`` was built with
    ``history=8, default_depth=2, max_clients=6, clock=clock``;
    ``settle`` runs after every publish (a no-op on the flat hub this
    was recorded from, whose publish fanned out inline).
    """
    seen = {}

    def join(label, **kw):
        seen[label] = (hub.connect(label=label, **kw), [])
        return seen[label][0]

    def drain(label):
        session, got = seen[label]
        got.extend([f.stream, f.step, f.digest] for f in session.drain())

    join("d1", depth=1)
    join("d2")
    join("d8", depth=8)
    join("fps", depth=4, max_fps=10.0)
    join("filt", streams=("b",), depth=8)
    churn = join("churn")
    with pytest.raises(HubFull):
        hub.connect(label="refused")
    cadence = {"d8": 1, "fps": 2, "d2": 3, "d1": 4, "filt": 5, "churn": 6}
    for step in range(20):
        clock.now = step * 0.03
        if step == 7:
            drain("churn")
            hub.disconnect(churn)
            cadence["late"] = 2
            join("late", depth=2)          # takes the freed slot
        if step == 13:
            drain("late")
            seen["late"][0].close()        # closes itself, no disconnect
            del cadence["late"]
            cadence["back"] = 3
            join("back", depth=1, max_fps=20.0)
        hub.publish("a", step, step * 0.1, bytes([step % 5]) * 64)
        settle()
        if step % 2:
            hub.publish("b", step, step * 0.1, bytes([100 + step % 3]) * 48)
            settle()
        for label, every in cadence.items():
            if step % every == every - 1:
                drain(label)
    clock.now += 1.0                       # let every deferred slot promote
    out = {}
    for label, (session, got) in seen.items():
        drain(label)
        out[label] = {
            "delivered": got,
            "stats": {**session.stats.as_dict(),
                      "steps": list(session.stats.steps)},
        }
    return out


class TestGoldenSequences:
    def test_mesh_reproduces_the_recorded_flat_hub(self):
        """``golden_serve_sequences.json`` was recorded by running
        ``_golden_scenario`` against ``FrameHub`` at ce20228, the last
        commit that had one; the hub is that flat hub again."""
        golden = json.loads(GOLDEN.read_text())
        clock = FakeClock()
        mesh = _quiet_mesh(history=8, default_depth=2, max_clients=6,
                           clock=clock)
        assert _golden_scenario(mesh, clock, mesh.settle) == golden


# ---------------------------------------------------------------------------
# Telemetry: cache counters, naming audit, serve line
# ---------------------------------------------------------------------------


class TestMeshTelemetry:
    def test_cache_counters_read_the_interning_ledger(self):
        tel = Telemetry.create(rank=0)
        with active(tel):
            mesh = ServeMesh(telemetry=tel)
            try:
                mesh.connect(label="v", depth=8)
                for step in range(4):
                    # identical payload: interned once, cache hits after
                    mesh.publish("s", step=step, time=0.0, data=_png(1))
                mesh.publish("s", step=4, time=0.0, data=_png(2))
            finally:
                mesh.close()        # settles first: all five fanned out
        hits = tel.metrics.get("repro_serve_cache_hits_total")
        misses = tel.metrics.get("repro_serve_cache_misses_total")
        assert (hits.value, misses.value) == (3, 2)
        assert mesh.stats()["cache"] == {"hits": 3, "misses": 2,
                                         "hit_rate": 0.6}
        assert not any("relay" in m.name for m in tel.metrics)
        assert naming_violations(tel.metrics) == []

    def test_dropped_counter_equals_session_drops(self):
        # drops happen on three paths — the pump's inlined fan-out, the
        # filtered/max_fps offer path, and a deferred frame promoted by
        # take() — and the mirrored counter must see them all
        tel = Telemetry.create(rank=0)
        clock = FakeClock()
        with active(tel):
            mesh = _quiet_mesh(telemetry=tel, clock=clock)
            sessions = [
                mesh.connect(label="plain", depth=1),
                mesh.connect(label="filtered", depth=2, streams=("s",)),
                mesh.connect(label="paced", depth=1, max_fps=10.0),
                mesh.connect(label="roomy", depth=16),
            ]
            for step in range(6):
                clock.now = step * 0.06
                mesh.publish("s", step=step, time=0.0, data=_png(step))
                mesh.settle()
            clock.now += 1.0
            sessions[2].take(block=False)      # promotes, evicting one
            mesh.close()
        dropped = sum(s.stats.dropped for s in sessions)
        assert dropped > 0 and sessions[3].stats.dropped == 0
        counter = tel.metrics.get("repro_serve_frames_dropped_total")
        assert counter is not None and counter.value == dropped
        assert naming_violations(tel.metrics) == []

    def test_takes_on_every_thread_are_counted(self):
        # the HTTP stream handler takes on executor threads, where the
        # hub's telemetry is not active; the delivery counters read the
        # pump's ledger, so every take lands in them
        tel = Telemetry.create(rank=0)
        mesh = _quiet_mesh(telemetry=tel)
        viewers = [mesh.connect(label=f"v{i}", depth=8) for i in range(3)]
        for step in range(4):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()

        def take_two(session):
            session.take(block=False)
            session.take(block=False)

        def take_two_under_tel():
            with active(tel):
                take_two(viewers[0])

        for target in (take_two_under_tel, lambda: take_two(viewers[1])):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join(60)
        viewers[2].drain()
        mesh.disconnect(viewers[2])          # closed sessions still count
        sent = tel.metrics.get("repro_serve_frames_sent_total").value
        bytes_out = tel.metrics.get("repro_serve_bytes_out_total").value
        assert sent == sum(v.stats.delivered for v in viewers) == 8
        assert bytes_out == sum(v.stats.bytes_out for v in viewers)
        sizes = [len(_png(step)) for step in range(4)]
        assert bytes_out == 2 * sum(sizes[:2]) + sum(sizes)
        assert naming_violations(tel.metrics) == []

    def test_observe_top_serve_line(self):
        from repro.observe.live.export import _serve_line, _serve_payload

        tel = Telemetry.create(rank=0)
        tel.metrics.counter("repro_serve_cache_hits_total").inc(9)
        tel.metrics.counter("repro_serve_cache_misses_total").inc(1)
        tel.metrics.gauge("repro_serve_clients").set(100)

        line = _serve_line(_serve_payload(tel.metrics))
        assert line == "serve: cache 9 hit / 1 miss (90%)  clients 100"

    def test_serve_line_absent_without_mesh_metrics(self):
        from repro.observe.live.export import _serve_payload

        tel = Telemetry.create(rank=0)

        assert _serve_payload(tel.metrics) is None


# ---------------------------------------------------------------------------
# HTTP transport: status and steering on the one hub
# ---------------------------------------------------------------------------


class TestMeshTransport:
    def test_status_and_steer_name_no_relay(self):
        mesh = ServeMesh()
        bus = SteeringBus()
        server = HttpFrameServer(mesh, bus)
        server.start()
        try:
            mesh.connect(label="viewer-0", depth=8)
            mesh.publish("flow", step=0, time=0.0, data=_png(0))

            _status, _headers, body = _get(server, "/status")
            hub = json.loads(body)["hub"]
            assert hub["clients"] == 1
            for gone in ("shard_map", "ring", "membership", "relays"):
                assert gone not in hub

            _status, reply = _post(
                server, "/steer", {"kind": "pause", "client": "viewer-0"}
            )
            assert reply == {"ok": True, "pending": 1}
            assert bus.submitted == 1
        finally:
            assert server.stop()
            mesh.close()
