"""Integration tests for the in transit runner (Section 4.2 topology)."""

import pytest

from repro.catalyst.pipeline import RenderPipeline
from repro.insitu import InTransitRunner
from repro.nekrs.cases import weak_scaled_rbc_case
from repro.parallel import SerialCommunicator, run_spmd


def _case_builder(steps=3):
    def build(nsim):
        c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3, dt=1e-3)
        return c.with_overrides(num_steps=steps)

    return build


def _run(mode, total=5, steps=3, tmp=None, ratio=4, **kw):
    runner = InTransitRunner(
        _case_builder(steps),
        mode=mode,
        ratio=ratio,
        num_steps=steps,
        stream_interval=1,
        arrays=("temperature", "velocity_magnitude"),
        output_dir=tmp or "intransit-test-out",
        image_size=64,
        **kw,
    )
    return runner, run_spmd(total, runner.run)


class TestSplitCounts:
    def test_four_to_one(self):
        runner = InTransitRunner(_case_builder(), ratio=4)
        assert runner.split_counts(5) == (4, 1)
        assert runner.split_counts(10) == (8, 2)

    def test_two_to_one(self):
        runner = InTransitRunner(_case_builder(), ratio=2)
        assert runner.split_counts(6) == (4, 2)

    def test_minimum_two_ranks(self):
        runner = InTransitRunner(_case_builder())
        with pytest.raises(ValueError):
            runner.split_counts(1)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            InTransitRunner(_case_builder(), mode="teleport")


class TestModes:
    def test_none_mode_runs_and_endpoint_idles(self, tmp_path):
        _, results = _run("none", tmp=tmp_path)
        sims = [r for r in results if r.role == "simulation"]
        ends = [r for r in results if r.role == "endpoint"]
        assert len(sims) == 4 and len(ends) == 1
        assert all(r.steps == 3 for r in sims)
        assert all(r.stream_bytes == 0 for r in sims)
        assert ends[0].steps == 0

    def test_checkpoint_mode_writes_vtu(self, tmp_path):
        _, results = _run("checkpoint", tmp=tmp_path)
        end = [r for r in results if r.role == "endpoint"][0]
        assert end.steps == 3
        vtus = list((tmp_path / "checkpoint").glob("*.vtu"))
        assert len(vtus) == 3 * 4  # 3 steps x 4 writer blocks
        assert end.files_bytes == pytest.approx(
            sum(p.stat().st_size for p in (tmp_path / "checkpoint").iterdir()),
        )

    def test_catalyst_mode_renders_images(self, tmp_path):
        _, results = _run("catalyst", tmp=tmp_path)
        end = [r for r in results if r.role == "endpoint"][0]
        pngs = list((tmp_path / "catalyst").glob("*.png"))
        assert end.images == len(pngs) == 6  # 2 images x 3 steps
        assert end.files_bytes == sum(p.stat().st_size for p in pngs)

    def test_endpoint_renders_through_the_declarative_pipeline(self, tmp_path):
        """The endpoint's Catalyst adaptor holds the RenderPipeline, not
        a bare callable: volumes are borrowed from the arena, and
        sort-last and device residency are open to it."""
        runner = InTransitRunner(_case_builder(), mode="catalyst",
                                 arrays=("temperature",), output_dir=tmp_path)
        adaptor = runner._endpoint_analysis(SerialCommunicator())
        assert isinstance(adaptor.pipeline, RenderPipeline)
        assert adaptor.pipeline.name == "intransit"

    def test_catalyst_storage_far_below_checkpoint(self, tmp_path):
        _, cat = _run("catalyst", tmp=tmp_path / "c")
        _, ck = _run("checkpoint", tmp=tmp_path / "k")
        cat_bytes = [r for r in cat if r.role == "endpoint"][0].files_bytes
        ck_bytes = [r for r in ck if r.role == "endpoint"][0].files_bytes
        assert cat_bytes < ck_bytes / 5

    def test_sim_memory_independent_of_endpoint_count(self, tmp_path):
        """The in-transit headline: simulation staging is bounded by the
        queue, regardless of visualization resources."""
        _, five = _run("catalyst", total=5, tmp=tmp_path / "a")
        _, six = _run("catalyst", total=6, tmp=tmp_path / "b", ratio=2)
        mem5 = max(r.memory_bytes for r in five if r.role == "simulation")
        mem6 = max(r.memory_bytes for r in six if r.role == "simulation")
        assert mem6 < 2 * mem5  # same order regardless of endpoint count

    def test_stream_interval_halves_transport(self, tmp_path):
        _, every = _run("checkpoint", tmp=tmp_path / "e")
        runner = InTransitRunner(
            _case_builder(4), mode="checkpoint", ratio=4, num_steps=4,
            stream_interval=2, arrays=("temperature",),
            output_dir=tmp_path / "h", image_size=64,
        )
        results = run_spmd(5, runner.run)
        end = [r for r in results if r.role == "endpoint"][0]
        assert end.steps == 2  # 4 steps / interval 2

    def test_discard_policy_tolerated(self, tmp_path):
        _, results = _run(
            "catalyst", tmp=tmp_path,
            queue_limit=1, queue_full_policy="Discard",
        )
        sims = [r for r in results if r.role == "simulation"]
        assert all(r.steps == 3 for r in sims)
