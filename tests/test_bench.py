"""Tests for the measure/replay benchmark harness."""

import math

import pytest

from repro.bench.measure import measure_insitu_profile, measure_intransit_profiles
from repro.bench.replay import (
    PredictedRun,
    predict_insitu_run,
    predict_intransit_step,
)
from repro.bench.workloads import measurement_pebble_case
from repro.insitu.instrumentation import RunProfile
from repro.machine import JUWELS_BOOSTER, POLARIS
from repro.nekrs.cases import weak_scaled_rbc_case


@pytest.fixture(scope="module")
def tiny_case():
    return measurement_pebble_case(num_pebbles=2, elements_per_unit=2, order=2,
                                   num_steps=2)


@pytest.fixture(scope="module")
def profiles(tiny_case):
    return {
        mode: measure_insitu_profile(
            tiny_case, mode, ranks=2, steps=2, interval=1, image_size=64,
        )
        for mode in ("original", "checkpoint", "catalyst")
    }


class TestMeasure:
    def test_profile_basics(self, profiles, tiny_case):
        for mode, p in profiles.items():
            assert p.mode == mode
            assert p.ranks == 2
            assert p.steps == 2
            assert p.gridpoints_per_rank > 0
            assert p.solver_seconds_per_step > 0
            assert p.solver_memory_bytes_per_rank > 0
            assert p.extra["pressure_iters_per_step"] > 0

    def test_checkpoint_profile_has_dump_bytes(self, profiles):
        p = profiles["checkpoint"]
        assert p.checkpoint_bytes_per_dump_per_rank > 0
        assert profiles["original"].checkpoint_bytes_per_dump_per_rank == 0

    def test_catalyst_profile_has_render_and_d2h(self, profiles):
        p = profiles["catalyst"]
        assert p.d2h_bytes_per_invocation_per_rank > 0
        assert p.image_bytes_per_invocation > 0
        assert p.render_seconds_per_invocation > 0
        assert p.staging_memory_bytes_per_rank > 0

    def test_invocations(self, profiles):
        assert profiles["catalyst"].invocations == 2

    def test_bad_mode_rejected(self, tiny_case):
        with pytest.raises(ValueError):
            measure_insitu_profile(tiny_case, "psychic", ranks=1, steps=1, interval=1)

    def test_steps_multiple_of_interval(self, tiny_case):
        with pytest.raises(ValueError):
            measure_insitu_profile(tiny_case, "original", ranks=1, steps=3, interval=2)


class TestPredictInsitu:
    def test_ordering_original_checkpoint_catalyst(self, profiles):
        preds = {
            m: predict_insitu_run(profiles[m], POLARIS, 280, 19.8e6)
            for m in profiles
        }
        assert (
            preds["original"].total_seconds
            < preds["checkpoint"].total_seconds
            <= preds["catalyst"].total_seconds * 1.05
        )

    def test_strong_scaling_reduces_time(self, profiles):
        t280 = predict_insitu_run(profiles["original"], POLARIS, 280, 19.8e6)
        t1120 = predict_insitu_run(profiles["original"], POLARIS, 1120, 19.8e6)
        assert t1120.total_seconds < t280.total_seconds

    def test_checkpoint_storage_matches_arithmetic(self, profiles):
        pred = predict_insitu_run(
            profiles["checkpoint"], POLARIS, 280, 19.8e6,
            steps=3000, interval=100,
        )
        assert pred.storage_bytes == pytest.approx(30 * 4 * 19.8e6 * 8, rel=1e-6)

    def test_storage_economy_three_orders(self, profiles):
        ck = predict_insitu_run(profiles["checkpoint"], POLARIS, 280, 19.8e6)
        cat = predict_insitu_run(profiles["catalyst"], POLARIS, 280, 19.8e6)
        assert cat.storage_bytes > 0
        orders = math.log10(ck.storage_bytes / cat.storage_bytes)
        assert orders > 2.5

    def test_memory_gap_roughly_25_percent(self, profiles):
        ck = predict_insitu_run(profiles["checkpoint"], POLARIS, 280, 19.8e6)
        cat = predict_insitu_run(profiles["catalyst"], POLARIS, 280, 19.8e6)
        ratio = cat.memory_aggregate_bytes / ck.memory_aggregate_bytes
        assert 1.1 < ratio < 1.4

    def test_aggregate_memory_scales_with_ranks(self, profiles):
        p = profiles["catalyst"]
        m280 = predict_insitu_run(p, POLARIS, 280, 19.8e6).memory_aggregate_bytes
        m560 = predict_insitu_run(p, POLARIS, 560, 19.8e6).memory_aggregate_bytes
        assert m560 > 1.8 * m280

    def test_seconds_breakdown_labels(self, profiles):
        pred = predict_insitu_run(profiles["catalyst"], POLARIS, 280, 19.8e6)
        assert {"solve", "collectives", "d2h", "render"} <= set(pred.seconds)

    def test_unknown_mode_raises(self, profiles):
        bad = RunProfile(
            case="x", mode="psychic", ranks=1, steps=1, insitu_interval=1,
            gridpoints_per_rank=10, num_fields=4,
        )
        with pytest.raises(ValueError):
            predict_insitu_run(bad, POLARIS, 8, 1e4)


class TestDeviceResidentReplay:
    @pytest.fixture(scope="class")
    def device_profile(self, tiny_case):
        return measure_insitu_profile(
            tiny_case, "catalyst_device", ranks=2, steps=2, interval=1,
            image_size=64,
        )

    def test_no_staging_term(self, device_profile):
        pred = predict_insitu_run(device_profile, POLARIS, 280, 19.8e6)
        assert "staging" not in pred.seconds
        assert {"solve", "collectives", "d2h", "render", "compositing"} <= set(
            pred.seconds
        )

    def test_d2h_constant_under_strong_scaling(self, device_profile):
        """The tile transfer is the same at every rank count — it is
        not a function of gridpoints per rank."""
        d280 = predict_insitu_run(device_profile, POLARIS, 280, 19.8e6)
        d1120 = predict_insitu_run(device_profile, POLARIS, 1120, 19.8e6)
        assert d280.seconds["d2h"] == d1120.seconds["d2h"]

    def test_overhead_below_host_catalyst(self, profiles, device_profile):
        base = predict_insitu_run(profiles["original"], POLARIS, 1120, 19.8e6)
        cat = predict_insitu_run(profiles["catalyst"], POLARIS, 1120, 19.8e6)
        dev = predict_insitu_run(device_profile, POLARIS, 1120, 19.8e6)
        host_over = cat.total_seconds - base.total_seconds
        dev_over = dev.total_seconds - base.total_seconds
        assert 0 < dev_over < host_over
        # the floor the device-resident pipeline was accepted on
        assert host_over / dev_over >= 1.5

    def test_memory_drops_host_staging(self, profiles, device_profile):
        cat = predict_insitu_run(profiles["catalyst"], POLARIS, 280, 19.8e6)
        dev = predict_insitu_run(device_profile, POLARIS, 280, 19.8e6)
        assert dev.memory_per_rank_bytes < cat.memory_per_rank_bytes


def test_delta_rle_velocity_pressure_ratio_at_least_4x():
    """The wire codec's acceptance floor, on real solver fields: both
    measurement cases, relative 1e-3, temporal chain as the SST writer
    runs it."""
    from repro.bench.compression import measure_compression
    from repro.bench.report import QUICK_CODEC

    measured = measure_compression(**QUICK_CODEC)
    assert measured["gate_ratio"] >= 4.0
    for row in measured["rows"]:
        if row["bound"]:
            assert row["max_abs_err"] <= row["bound"], row


def _it_builder(nsim):
    c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=2, dt=1e-3)
    return c.with_overrides(num_steps=2)


class TestPredictInTransit:
    @pytest.fixture(scope="class")
    def it_profiles(self):
        return {
            mode: measure_intransit_profiles(
                _it_builder, mode, total_ranks=3, steps=2, ratio=2,
                image_size=48,
            )
            for mode in ("none", "checkpoint", "catalyst")
        }

    def test_weak_scaling_flat(self, it_profiles):
        p = it_profiles["catalyst"]["simulation"]
        t16 = predict_intransit_step(p, JUWELS_BOOSTER, 16).seconds_per_step
        t1024 = predict_intransit_step(p, JUWELS_BOOSTER, 1024).seconds_per_step
        assert t1024 < 1.1 * t16  # flat to within 10%

    def test_transport_modes_cost_more_than_none(self, it_profiles):
        t = {
            m: predict_intransit_step(
                it_profiles[m]["simulation"], JUWELS_BOOSTER, 64
            ).seconds_per_step
            for m in it_profiles
        }
        assert t["none"] < t["checkpoint"]
        assert t["none"] < t["catalyst"]

    def test_memory_none_close_to_catalyst(self, it_profiles):
        m = {
            mode: predict_intransit_step(
                it_profiles[mode]["simulation"], JUWELS_BOOSTER, 64
            ).memory_per_node_bytes(4)
            for mode in it_profiles
        }
        assert m["none"] < m["catalyst"] < m["checkpoint"]
        assert m["catalyst"] < 1.5 * m["none"]

    def test_endpoint_stats_present(self, it_profiles):
        end = it_profiles["catalyst"]["endpoint"]
        assert end["images"] > 0
        assert end["steps"] == 2

        # 4+2: a step is rendered by one of the two endpoints, so the
        # run's step count is the sum over them, not endpoint 0's share
        end = measure_intransit_profiles(
            _it_builder, "catalyst", total_ranks=6, steps=2, ratio=2,
            image_size=48,
        )["endpoint"]
        assert end["ranks"] == 2
        assert end["steps"] == 2 and end["images"] == 4


class TestPredictedRun:
    def test_totals(self):
        pred = PredictedRun(
            mode="original", cluster="Polaris", ranks=8, nodes=2,
            steps=10, interval=5,
        )
        pred.seconds.update(solve=1.0, collectives=0.5)
        pred.memory_per_rank_bytes = 100
        assert pred.total_seconds == 1.5
        assert pred.seconds_per_step == 0.15
        assert pred.memory_aggregate_bytes == 800
        assert pred.memory_per_node_bytes(4) == 400
