"""Tests for repro.serve.mesh: relay hubs, edge cache, session pump.

Unit layers first (EdgeCache / MeshSession / SessionPump invariants),
then the mesh acceptance scenarios from the serving design: O(1)
publisher wakeups per publish, consistent-hash placement with bounded
movement on join, crash-driven lease-expiry migration that never loses
or repeats a committed step, the recorded flat-hub golden sequences
reproduced at 1 and 3 relays, the cache/drop counters and relay gauges
flowing through the metric-naming audit, and the HTTP transport
exposing the shard map and routing steering through the client's relay.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.observe import naming_violations
from repro.observe.session import Telemetry, active
from repro.serve import (
    EdgeCache,
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
    """A mesh with no relay threads and no lease pressure.

    start=False registers the relays without running their pump
    threads, so ``settle()`` services them on the test's thread,
    deterministically (and there is nothing to close() afterwards);
    the long lease keeps the publish-path ``check()`` from expiring
    the non-heartbeating relays mid-test.
    """
    kwargs.setdefault("relays", 3)
    kwargs.setdefault("lease_timeout_s", 300.0)
    return ServeMesh(start=False, **kwargs)


# ---------------------------------------------------------------------------
# EdgeCache
# ---------------------------------------------------------------------------


class TestEdgeCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EdgeCache(capacity=0)

    def test_get_counts_hit_and_miss(self):
        cache = EdgeCache(capacity=4)
        f = _frame(0)
        assert cache.put(f) is True          # new digest: a miss
        assert cache.get(f.digest) is f
        assert cache.get("nope") is None
        assert (cache.hits, cache.misses) == (1, 2)

    def test_reinserted_digest_counts_as_hit(self):
        # a converged flow republishing identical pixels costs nothing
        cache = EdgeCache(capacity=4)
        a, b = _frame(0), _frame(0)
        assert a.digest == b.digest
        assert cache.put(a) is True
        assert cache.put(b) is False
        assert cache.hits == 1
        # newest metadata wins for the shared bytes
        assert cache.get(a.digest) is b

    def test_lru_eviction(self):
        cache = EdgeCache(capacity=2)
        f0, f1, f2 = _frame(0), _frame(1), _frame(2)
        cache.put(f0)
        cache.put(f1)
        cache.get(f0.digest)                 # refresh f0: f1 is now LRU
        cache.put(f2)
        assert cache.evictions == 1
        assert f0.digest in cache
        assert f1.digest not in cache

    def test_stats_and_payload_bytes(self):
        cache = EdgeCache(capacity=4)
        f = _frame(3)
        cache.put(f)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert cache.payload_bytes == f.nbytes


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

    def test_placement_key_defaults_to_label(self):
        s = MeshSession(7, label="viewer-a")
        assert s.key == "viewer-a"
        assert MeshSession(8, key="pin", label="viewer-b").key == "pin"

    def test_seq_cursor_skips_replayed_frames(self):
        # the cross-relay dedup cursor: re-offering an already-seen
        # frame (relay handoff backfill) is a no-op
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


# ---------------------------------------------------------------------------
# Placement, shard map, O(1) publish
# ---------------------------------------------------------------------------


class TestMeshPlacement:
    def test_sessions_land_on_ring_assigned_relay(self):
        mesh = _quiet_mesh(relays=4)
        for i in range(32):
            s = mesh.connect(label=f"viewer-{i}")
            rid = mesh.ring.assign(s.key)
            assert s._pump is mesh._relays[rid].pump

    def test_shard_map_counts_every_client(self):
        mesh = _quiet_mesh(relays=4)
        for i in range(32):
            mesh.connect(label=f"viewer-{i}")
        shard_map = mesh.shard_map()
        assert sum(e["clients"] for e in shard_map.values()) == 32
        assert set(shard_map) == {"0", "1", "2", "3"}
        assert all(e["state"] == "active" for e in shard_map.values())

    def test_publish_wakeups_are_o1_per_relay(self):
        # the tentpole invariant: publish cost is O(relays), not
        # O(clients) — each publish issues exactly one notify per relay
        # no matter how many sessions the relay carries
        mesh = _quiet_mesh(relays=3)
        for i in range(60):
            mesh.connect(label=f"viewer-{i}", depth=8)
        for step in range(5):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        for relay in mesh._relays.values():
            assert relay.pump.notifies == 5

    def test_max_clients_budget_enforced(self):
        mesh = _quiet_mesh(relays=2, max_clients=2)
        mesh.connect(label="a")
        b = mesh.connect(label="b")
        with pytest.raises(HubFull):
            mesh.connect(label="c")
        # immediate slot release on disconnect
        mesh.disconnect(b)
        mesh.connect(label="c")

    def test_join_rebalance_moves_only_the_new_arc(self):
        mesh = _quiet_mesh(relays=3)
        sessions = [mesh.connect(label=f"viewer-{i}") for i in range(48)]
        before = {s.sid: s._pump.rid for s in sessions}
        rid = mesh.add_relay(start=False)
        moved = [s for s in sessions if s._pump.rid != before[s.sid]]
        # everything that moved landed on the new relay, nothing
        # shuffled between the old ones
        assert moved
        assert all(s._pump.rid == rid for s in moved)
        assert any(m["kind"] == "join" for m in mesh.migrations)


# ---------------------------------------------------------------------------
# Edge cache serving: backfill, replay, late joiners
# ---------------------------------------------------------------------------


class TestEdgeServing:
    def test_late_joiner_backfills_from_edge_cache(self):
        mesh = _quiet_mesh(relays=2)
        for step in range(4):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        published = mesh.frames_published
        s = mesh.connect(label="late", depth=8, backfill=True)
        # served entirely from the relay's retained ring: the
        # publisher never saw the join
        assert [f.step for f in s.drain()] == [0, 1, 2, 3]
        assert mesh.frames_published == published
        assert mesh.stats()["cache"]["hits"] >= 4

    def test_relay_replay_prefers_edge_over_origin(self):
        mesh = _quiet_mesh(relays=2)
        for step in range(3):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        frames = mesh.relay_replay("s", key="edge")
        assert [f.step for f in frames] == [0, 1, 2]
        relay = mesh.relay_for("edge")
        assert relay.origin_fetches == 0
        latest = mesh.relay_latest("s", key="edge")
        assert latest.step == 2

    def test_unserviced_relay_falls_back_to_origin(self):
        mesh = _quiet_mesh(relays=2)
        mesh.publish("s", step=0, time=0.0, data=_png(0))
        # no pump pass: the edge is cold, origin answers
        relay = mesh.relay_for("edge")
        assert mesh.relay_latest("s", key="edge").step == 0
        assert relay.origin_fetches == 1


# ---------------------------------------------------------------------------
# max_fps through the pump
# ---------------------------------------------------------------------------


class TestMaxFpsThroughPump:
    def test_newest_wins_deferred_slot(self):
        clock = FakeClock()
        mesh = _quiet_mesh(relays=2, clock=clock)
        s = mesh.connect(label="v", max_fps=10.0, depth=4)
        for step in range(3):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        # step 0 enqueued; 1 deferred; 2 supersedes 1 (newest wins)
        assert [f.step for f in s.drain()] == [0]
        assert s.stats.rate_limited == 1
        clock.now += 0.2
        assert [f.step for f in s.drain()] == [2]

    def test_deferred_slot_survives_relay_migration(self):
        clock = FakeClock()
        mesh = _quiet_mesh(relays=2, clock=clock)
        s = mesh.connect(label="v", max_fps=10.0, depth=4)
        for step in range(3):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        assert [f.step for f in s.drain()] == [0]
        old_rid = s._pump.rid
        mesh.remove_relay(old_rid)
        assert s._pump.rid != old_rid
        # the deferred newest frame travelled with the session and
        # the backfill replay did not resurrect the superseded one
        clock.now += 0.2
        assert [f.step for f in s.drain()] == [2]
        steps = list(s.stats.steps)
        assert steps == sorted(set(steps)) == [0, 2]

    def test_delivered_steps_strictly_increase_across_handoff(self):
        clock = FakeClock()
        mesh = _quiet_mesh(relays=2, clock=clock)
        s = mesh.connect(label="v", depth=16)
        for step in range(4):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        assert [f.step for f in s.drain()] == [0, 1, 2, 3]
        # handoff: the new relay's backfill re-offers 0..3, the
        # cursor drops them all, then fresh frames keep flowing
        mesh.remove_relay(s._pump.rid)
        for step in range(4, 7):
            mesh.publish("s", step=step, time=0.0, data=_png(step))
        mesh.settle()
        assert [f.step for f in s.drain()] == [4, 5, 6]
        steps = list(s.stats.steps)
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)


# ---------------------------------------------------------------------------
# Relay loss: lease expiry, migration, no lost committed steps
# ---------------------------------------------------------------------------


class TestRelayLoss:
    def test_crash_detected_by_lease_expiry_and_sessions_migrate(self):
        mesh = ServeMesh(
            relays=3, lease_timeout_s=0.15, poll_interval_s=0.001
        )
        try:
            sessions = [
                mesh.connect(label=f"viewer-{i}", depth=64) for i in range(12)
            ]
            for step in range(3):
                mesh.publish("s", step=step, time=0.0, data=_png(step))
            mesh.settle()
            victim_rid = sessions[0]._pump.rid
            displaced = [s for s in sessions if s._pump.rid == victim_rid]
            mesh.kill_relay(victim_rid)
            deadline = time.monotonic() + 5.0
            while victim_rid in mesh._relays and time.monotonic() < deadline:
                mesh.check()
                time.sleep(0.02)
            assert victim_rid not in mesh._relays, "lease never expired"
            record = mesh.migrations[-1]
            assert record["kind"] == "crash"
            assert record["sessions_moved"] == len(displaced)
            for step in range(3, 6):
                mesh.publish("s", step=step, time=0.0, data=_png(step))
            mesh.settle()
            # surviving relays carry everyone; every committed step
            # arrives exactly once, in order, across the handoff
            for s in sessions:
                assert s._pump.rid != victim_rid
                s.drain()
                assert s.stats.steps == [0, 1, 2, 3, 4, 5]
            assert victim_rid in mesh.stats()["lost_relays"]
        finally:
            mesh.close()

    def test_last_relay_loss_closes_orphans(self):
        mesh = _quiet_mesh(relays=1)
        s = mesh.connect(label="v")
        mesh.remove_relay(0)
        assert s.closed
        with pytest.raises(HubFull):
            mesh.connect(label="w")


# ---------------------------------------------------------------------------
# settle(): the one synchronisation point
# ---------------------------------------------------------------------------


class TestSettle:
    def test_close_delivers_everything_published_to_started_relays(self):
        # close() used to stop the relay threads with frames still in
        # their inboxes; it settles first now.  More relay threads than
        # cores and a short switch interval: a frame lost between the
        # lock-free inbox and the settle wait would break the sequence
        nframes = 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mesh = ServeMesh(relays=4, lease_timeout_s=300.0)
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

    def test_settle_skips_a_killed_relay(self):
        mesh = ServeMesh(relays=2, lease_timeout_s=300.0)
        try:
            sessions = [
                mesh.connect(label=f"viewer-{i}", depth=8) for i in range(8)
            ]
            victim = sessions[0]._pump.rid
            mesh.kill_relay(victim)
            mesh.publish("s", step=0, time=0.0, data=_png(0))
            mesh.settle()           # returns: the dead relay is check()'s job
            for s in sessions:
                expected = [] if s._pump.rid == victim else [0]
                assert [f.step for f in s.drain()] == expected
        finally:
            mesh.close()


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
        commit that had one; a flat hub is a one-relay mesh, and the
        relay count must not change what any client sees."""
        golden = json.loads(GOLDEN.read_text())
        for relays in (1, 3):
            clock = FakeClock()
            mesh = _quiet_mesh(relays=relays, history=8, default_depth=2,
                               max_clients=6, clock=clock)
            assert _golden_scenario(mesh, clock, mesh.settle) == golden


# ---------------------------------------------------------------------------
# Steering through the client's relay
# ---------------------------------------------------------------------------


class TestSteering:
    def test_route_steer_uses_clients_relay(self):
        from repro.serve import SteerCommand

        mesh = _quiet_mesh(relays=3)
        bus = SteeringBus()
        mesh.attach_bus(bus)
        s = mesh.connect(label="viewer-7")
        rid = mesh.route_steer(SteerCommand("pause", client="viewer-7"))
        assert rid == s._pump.rid
        assert mesh._relays[rid].steer_forwarded == 1
        assert bus.submitted == 1
        # unknown client falls back to ring placement of its label
        rid2 = mesh.route_steer(SteerCommand("resume", client="ghost"))
        assert rid2 == mesh.ring.assign("ghost")

    def test_route_steer_without_bus_raises(self):
        from repro.serve import SteerCommand

        mesh = _quiet_mesh(relays=2)
        with pytest.raises(RuntimeError):
            mesh.route_steer(SteerCommand("pause"))


# ---------------------------------------------------------------------------
# Telemetry: cache counters, relay gauges, naming audit, serve line
# ---------------------------------------------------------------------------


class _Plane:
    """The slice of LivePlane that ``_serve_line`` reads."""

    def __init__(self, tel):
        self.merged_metrics = lambda: tel.metrics


class TestMeshTelemetry:
    def test_cache_counters_and_relay_gauges_pass_naming_audit(self):
        tel = Telemetry.create(rank=0)
        with active(tel):
            mesh = ServeMesh(
                relays=2, lease_timeout_s=300.0, poll_interval_s=0.001,
                telemetry=tel,
            )
            try:
                mesh.connect(label="v", depth=8)
                for step in range(4):
                    # identical payload: interned once, cache hits after
                    mesh.publish("s", step=step, time=0.0, data=_png(1))
            finally:
                mesh.close()        # settles first: all four fanned out
        hits = tel.metrics.get("repro_serve_cache_hits_total")
        assert hits is not None and hits.value >= 1
        gauges = [
            m for m in tel.metrics if m.name == "repro_serve_relay_clients"
        ]
        assert {g.const_labels["relay"] for g in gauges} == {"0", "1"}
        assert naming_violations(tel.metrics) == []

    def test_dropped_counter_equals_session_drops(self):
        # drops happen on three paths — the pump's inlined fan-out, the
        # filtered/max_fps offer path, and a deferred frame promoted by
        # take() — and the mirrored counter must see them all
        tel = Telemetry.create(rank=0)
        clock = FakeClock()
        with active(tel):
            mesh = _quiet_mesh(relays=2, telemetry=tel, clock=clock)
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

    def test_observe_top_serve_line(self):
        from repro.observe.live.export import _serve_line

        tel = Telemetry.create(rank=0)
        tel.metrics.counter("repro_serve_cache_hits_total").inc(9)
        tel.metrics.counter("repro_serve_cache_misses_total").inc(1)
        tel.metrics.gauge(
            "repro_serve_relay_clients", const_labels={"relay": "0"}
        ).set(40)
        tel.metrics.gauge(
            "repro_serve_relay_clients", const_labels={"relay": "1"}
        ).set(60)

        line = _serve_line(_Plane(tel))
        assert line == "serve: cache 9 hit / 1 miss (90%)  relays 0:40  1:60"

    def test_serve_line_absent_without_mesh_metrics(self):
        from repro.observe.live.export import _serve_line

        tel = Telemetry.create(rank=0)

        assert _serve_line(_Plane(tel)) is None


# ---------------------------------------------------------------------------
# HTTP transport: shard map in /status, steering via relay
# ---------------------------------------------------------------------------


class TestMeshTransport:
    def test_status_shard_map_and_steer_relay(self):
        mesh = ServeMesh(
            relays=2, lease_timeout_s=300.0, poll_interval_s=0.001
        )
        bus = SteeringBus()
        server = HttpFrameServer(mesh, bus)
        server.start()
        try:
            s = mesh.connect(label="viewer-0", depth=8)
            mesh.publish("flow", step=0, time=0.0, data=_png(0))

            _status, _headers, body = _get(server, "/status")
            shard_map = json.loads(body)["hub"]["shard_map"]
            assert set(shard_map) == {"0", "1"}
            assert sum(e["clients"] for e in shard_map.values()) == 1

            _status, reply = _post(
                server, "/steer", {"kind": "pause", "client": "viewer-0"}
            )
            assert reply["ok"] is True
            assert reply["relay"] == s._pump.rid
            assert bus.submitted == 1
        finally:
            assert server.stop()
            mesh.close()
