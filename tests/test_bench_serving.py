"""Serving load-generator acceptance: many clients, zero hub stalls.

One load driver, ``run_mesh_load``: ``TestServingLoad`` runs it at
``relays=1`` (the workstation-viewer shape — mixed fast/slow clients,
seeded churn, backpressure drops, the report's codec row) and
``TestMeshLoad`` sharded over three relays, including a relay crash.
"""

import pytest

from repro.bench.serving import (
    check_mesh_gate,
    mesh_serving_table,
    run_mesh_load,
    synthetic_frames,
)

pytestmark = pytest.mark.timeout(180)


class TestSyntheticFrames:
    def test_distinct_valid_pngs(self):
        frames = synthetic_frames(count=4, size=16)
        assert len(frames) == 4
        assert len({f for f in frames}) == 4
        assert all(f.startswith(b"\x89PNG\r\n\x1a\n") for f in frames)

    def test_deterministic(self):
        assert synthetic_frames(count=3, size=8, seed=5) == \
            synthetic_frames(count=3, size=8, seed=5)


class TestServingLoad:
    def test_small_run_accounting(self):
        out = run_mesh_load(clients=16, frames=12, relays=1, workers=4,
                            probe_clients=2, seed=3)
        assert out["clients"] == 16
        assert out["frames_published"] == 12
        assert out["stalls"] == 0
        # every frame reached at least the fast clients
        assert out["fast_delivered_min"] == 12
        assert out["delivered"] > 0
        assert out["latency_p99_ms"] >= out["latency_p50_ms"] >= 0.0

    def test_slow_clients_drop_frames(self):
        out = run_mesh_load(clients=20, frames=30, relays=1, workers=4,
                            probe_clients=2, slow_fraction=0.5, seed=3)
        assert out["dropped"] > 0           # backpressure engaged
        assert out["stalls"] == 0           # ... without stalling publish

    def test_churn_is_seeded_and_counted(self):
        kw = dict(clients=32, frames=20, relays=1, workers=4,
                  probe_clients=2, churn_probability=0.05, seed=9)
        a = run_mesh_load(**kw)
        b = run_mesh_load(**kw)
        assert a["churn_events"] > 0
        assert a["churn_events"] == b["churn_events"]
        assert a["monotonic_violations"] == 0

    def test_table_renders(self):
        # the report's call: rank 0's codec-encoded `fields` stream
        # rides the same store, and its savings get their own row
        table = mesh_serving_table(clients=24, frames=10, relays=1,
                                   workers=4, probe_clients=2,
                                   codec="delta-rle")
        text = str(table)
        assert "stalls" in text
        assert "p99" in text
        assert "interned codec frames (fields stream)" in text


@pytest.mark.mesh
class TestMeshLoad:
    def test_small_run_accounting_and_gates(self):
        out = run_mesh_load(
            clients=120, frames=16, relays=3, workers=4,
            probe_clients=16, seed=3,
        )
        assert out["clients"] == 120
        assert out["frames_published"] == 16
        assert out["stalls"] == 0
        assert out["delivered"] > 0
        assert out["monotonic_violations"] == 0
        # O(relays) publisher wakeups: one ingest per relay per frame
        assert out["notifies"] == 16 * 3
        assert check_mesh_gate(out) == []

    def test_churn_schedule_is_deterministic(self):
        kw = dict(clients=200, frames=16, relays=3, workers=4,
                  probe_clients=8, churn_probability=0.01, seed=9)
        a = run_mesh_load(**kw)
        b = run_mesh_load(**kw)
        assert a["churn_events"] > 0
        assert a["churn_events"] == b["churn_events"]

    def test_fires_grid_matches_per_call_draws(self):
        # the vectorized churn grid must be deterministic and honor
        # scheduled entries — it need not match fires() draw-for-draw
        # (different stream), but the schedule is seed-stable
        from repro.faults import FaultInjector

        kw = dict(seed=7, probabilities={"endpoint_crash": 0.05})
        a = FaultInjector(**kw).fires_grid(
            "endpoint_crash", "site", range(50), range(20)
        )
        b = FaultInjector(**kw).fires_grid(
            "endpoint_crash", "site", range(50), range(20)
        )
        assert a == b
        assert any(a.values())             # 0.05 x 1000 cells: fires

    def test_relay_loss_migrates_without_losing_steps(self):
        out = run_mesh_load(
            clients=150, frames=20, relays=3, workers=4,
            probe_clients=8, churn_probability=0.0, seed=5,
            kill_relay_at_frame=8, lease_timeout_s=0.2,
        )
        assert out["killed_relay"] is not None
        crash = [m for m in out["migrations"] if m["kind"] == "crash"]
        assert len(crash) == 1
        assert crash[0]["sessions_moved"] == out["migrated_clients"] > 0
        assert out["monotonic_violations"] == 0
        assert out["stalls"] == 0
        assert check_mesh_gate(out) == []

    def test_mesh_table_renders(self):
        text = str(mesh_serving_table(
            clients=80, frames=10, relays=2, workers=4, probe_clients=8,
        ))
        assert "relay fan-out" in text
        assert "edge cache" in text
        assert "acceptance gates" in text
