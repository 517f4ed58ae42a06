"""Tests for the fleet bench (time-to-recover + elastic weak scaling)."""

from __future__ import annotations

import pytest

from repro.bench import fleet as bench_fleet

pytestmark = pytest.mark.fleet


class TestRecoveryScenario:
    def test_fleet_path_recovers_every_step(self):
        out = bench_fleet._run_fleet_recovery()
        assert out["committed"] == out["expected"]
        assert out["degraded"] == 0
        assert out["crashes_detected"] == 1
        assert out["streams_moved"] >= 1
        assert out["recovery_seconds"] >= 0.0

    def test_recovery_slo_table_renders(self):
        table = bench_fleet.recovery_slo()
        text = table.render()
        assert "fleet (reroute + replay)" in text
        rows = table.as_dicts()
        assert len(rows) == 1
        assert rows[0]["steps committed"] == "8/8"


class TestWeakScaling:
    @pytest.mark.timeout(240)
    def test_per_rank_cpu_stays_flat_under_autoscaling(self):
        table = bench_fleet.weak_scaling(totals=(3, 6))
        rows = table.as_dicts()
        assert len(rows) == 2
        assert rows[0]["ranks (sim+end)"] == "2+1"
        assert rows[1]["ranks (sim+end)"] == "4+2"
        # flat weak scaling: per-rank CPU per step within 1.75x of the
        # base point even though the rank count doubled
        rel = float(rows[1]["sim CPU/step [s/rank]"].split("(")[1].rstrip("x)"))
        assert rel < 1.75

    def test_run_renders_both_sections(self):
        out = bench_fleet.run()
        text = out.render()
        assert "Endpoint-loss recovery" in text
        assert "Weak scaling, elastic fleet" in text
