"""End-to-end telemetry tests: traced runs, Fig. 3 agreement, overhead."""

import json
import time

import pytest

from repro.bench.measure import measure_insitu_profile, measure_intransit_profiles
from repro.nekrs.cases import lid_cavity_case, weak_scaled_rbc_case
from repro.observe import TelemetrySession, get_telemetry, validate_nesting
from repro.observe.tracer import SpanEvent

RANKS = 2
STEPS = 4
INTERVAL = 2


def _tiny_case():
    return lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3,
                           num_steps=STEPS)


@pytest.fixture(scope="module")
def traced_catalyst(tmp_path_factory):
    session = TelemetrySession("it-catalyst")
    profile = measure_insitu_profile(
        _tiny_case(),
        "catalyst",
        ranks=RANKS,
        steps=STEPS,
        interval=INTERVAL,
        output_dir=tmp_path_factory.mktemp("catalyst"),
        array="velocity_magnitude",
        color_array="pressure",
        image_size=64,
        session=session,
    )
    return profile, session


class TestTracedCatalystRun:
    def test_chrome_trace_valid_with_one_track_per_rank(self, traced_catalyst):
        _, session = traced_catalyst
        trace = json.loads(json.dumps(session.chrome_trace()))
        validate_nesting(trace)
        tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert tids == set(range(RANKS))

    def test_spans_nest_solver_bridge_render(self, traced_catalyst):
        _, session = traced_catalyst
        paths = {e.path for e in session.events() if isinstance(e, SpanEvent)}
        assert "solver.step" in paths
        assert "solver.step/solver.pressure" in paths
        assert "bridge.execute" in paths
        assert "bridge.execute/catalyst.render" in paths
        assert "bridge.execute/catalyst.gather" in paths

    def test_per_rank_span_counts(self, traced_catalyst):
        _, session = traced_catalyst
        for rank in range(RANKS):
            events = session.rank(rank).tracer.events
            steps = [e for e in events
                     if isinstance(e, SpanEvent) and e.name == "solver.step"]
            assert len(steps) == STEPS
            # tagged with the step each call produced (StepReport.step),
            # the number bridge.execute and the stream carry for it
            assert [e.args["step"] for e in steps] == list(range(1, STEPS + 1))

    def test_metrics_match_run_shape(self, traced_catalyst):
        _, session = traced_catalyst
        merged = session.merged_metrics()
        assert merged.get("repro_solver_steps_total").value == RANKS * STEPS
        assert merged.get("repro_solver_step_seconds").stats.count == RANKS * STEPS
        invocations = STEPS // INTERVAL
        assert merged.get("repro_bridge_invocations_total").value == RANKS * invocations

    def test_memory_hwm_matches_fig3_profile_within_1pct(self, traced_catalyst):
        profile, session = traced_catalyst
        # the RunProfile's Fig. 3 inputs and the telemetry meters must
        # describe the same quantities, within 1%
        for rank in range(RANKS):
            peaks = session.rank(rank).memory.peaks()
            assert peaks["solver"] == pytest.approx(
                profile.solver_memory_bytes_per_rank, rel=0.01
            )
            assert peaks["sensei.staging"] == pytest.approx(
                profile.staging_memory_bytes_per_rank, rel=0.01
            )

    def test_prometheus_dump_nonempty(self, traced_catalyst):
        _, session = traced_catalyst
        text = session.to_prometheus()
        assert "repro_solver_step_seconds_bucket" in text
        assert "repro_catalyst_images_total" in text


class TestTracedInTransitRun:
    def test_sst_spans_and_queue_memory(self, tmp_path):
        session = TelemetrySession("it-sst")

        def case_builder(nsim):
            c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3, dt=1e-3)
            return c.with_overrides(num_steps=3)

        measure_intransit_profiles(
            case_builder,
            "catalyst",
            total_ranks=3,
            steps=3,
            stream_interval=1,
            ratio=2,
            output_dir=tmp_path,
            image_size=64,
            session=session,
        )
        events = session.events()
        names = {e.name for e in events if isinstance(e, SpanEvent)}
        assert {"solver.step", "bridge.execute", "sst.put", "sst.get"} <= names
        # sim ranks put (nested under the bridge), the endpoint rank gets
        put_ranks = {e.rank for e in events
                     if isinstance(e, SpanEvent) and e.name == "sst.put"}
        get_ranks = {e.rank for e in events
                     if isinstance(e, SpanEvent) and e.name == "sst.get"}
        assert put_ranks == {0, 1} and get_ranks == {2}
        assert any(
            e.path == "bridge.execute/sst.put"
            for e in events if isinstance(e, SpanEvent)
        )
        # writer ranks account their staged-queue high-water mark
        for rank in put_ranks:
            assert session.rank(rank).memory.peaks().get("sst.queue", 0) > 0
        merged = session.merged_metrics()
        assert merged.get("repro_sst_steps_put_total").value == 6
        assert merged.get("repro_sst_steps_got_total").value == 6

    def test_merged_counters_equal_the_ledgers(self, tmp_path, monkeypatch):
        """Each read-backed family's merged value is its owners' ledger."""
        from repro.insitu import Bridge, InTransitRunner
        from repro.occa import Device
        from repro.parallel import run_spmd
        from repro.sensei.analyses.catalyst_adaptor import (
            CatalystAnalysisAdaptor,
        )

        def instances(cls):
            made, init = [], cls.__init__

            def recording(self, *args, **kwargs):
                init(self, *args, **kwargs)
                made.append(self)

            monkeypatch.setattr(cls, "__init__", recording)
            return made

        bridges = instances(Bridge)
        adaptors = instances(CatalystAnalysisAdaptor)
        devices = instances(Device)

        def case_builder(nsim):
            c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3, dt=1e-3)
            return c.with_overrides(num_steps=3)

        session = TelemetrySession("it-ledgers")
        runner = InTransitRunner(
            case_builder, mode="catalyst", ratio=1, num_steps=3,
            output_dir=tmp_path, image_size=64, session=session,
        )
        run_spmd(4, runner.run)
        broker, coordinator = runner.last_broker, runner.last_coordinator
        ledgers = {
            "repro_sst_steps_put_total": broker.stats.steps_put,
            "repro_sst_bytes_put_total": broker.stats.bytes_put,
            "repro_sst_steps_got_total": broker.stats.steps_got,
            "repro_sst_bytes_got_total": broker.stats.bytes_got,
            "repro_fleet_commits_total": coordinator.commits,
            "repro_fleet_steals_total": coordinator.queues.stolen,
            "repro_bridge_invocations_total":
                sum(b.invocations for b in bridges),
            "repro_catalyst_images_total":
                sum(a.images_written for a in adaptors),
            "repro_catalyst_image_bytes_total":
                sum(a.image_bytes for a in adaptors),
            "repro_pcie_h2d_bytes_total":
                sum(d.transfers.h2d_bytes for d in devices),
            "repro_pcie_d2h_bytes_total":
                sum(d.transfers.d2h_bytes for d in devices),
        }
        merged = session.merged_metrics()
        # a read-backed counter is exported from its first count on
        values = {
            name: merged.get(name).value if merged.get(name) else 0
            for name in ledgers
        }
        assert values == ledgers
        assert broker.stats.steps_put == 6 and coordinator.commits == 3
        assert ledgers["repro_catalyst_images_total"] > 0
        assert ledgers["repro_pcie_d2h_bytes_total"] > 0
        # the shared broker's counters sit on the rank that built it
        assert session.rank(0).metrics.get(
            "repro_sst_steps_got_total"
        ).value == broker.stats.steps_got
        assert session.rank(2).metrics.get("repro_sst_steps_got_total") is None

    def test_fault_instants_appear_in_trace(self, tmp_path):
        from repro.faults.injector import FaultInjector

        session = TelemetrySession("it-faults")
        injector = FaultInjector(seed=1, schedule={"corrupt_payload": (1,)})

        def case_builder(nsim):
            c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3, dt=1e-3)
            return c.with_overrides(num_steps=3)

        measure_intransit_profiles(
            case_builder,
            "checkpoint",
            total_ranks=3,
            steps=3,
            stream_interval=1,
            ratio=2,
            output_dir=tmp_path,
            injector=injector,
            session=session,
        )
        instants = [e for e in session.events() if not isinstance(e, SpanEvent)]
        assert any(e.name == "fault.corrupt_payload" for e in instants)


class TestOverheadGuard:
    def test_noop_spans_under_5pct_of_solver_run(self):
        """The no-op default must be invisible next to real solver work.

        Both sides are best-of-3 with a warmup pass: single
        measurements of sub-second work on a shared core are coin
        flips, and one descheduled slice used to fail this test.
        """
        from repro.nekrs.solver import NekRSSolver
        from repro.parallel import SerialCommunicator

        NekRSSolver(_tiny_case(), SerialCommunicator()).run(num_steps=1)
        run_seconds = None
        for _ in range(3):
            solver = NekRSSolver(_tiny_case(), SerialCommunicator())
            t0 = time.perf_counter()
            solver.run(num_steps=STEPS)
            elapsed = time.perf_counter() - t0
            run_seconds = elapsed if run_seconds is None else min(
                run_seconds, elapsed)

        # measure the raw per-call cost of the disabled telemetry path
        tel = get_telemetry()
        assert not tel.enabled
        trials = 10_000
        per_span = None
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(trials):
                with tel.tracer.span("solver.step", step=0):
                    pass
            cost = (time.perf_counter() - t0) / trials
            per_span = cost if per_span is None else min(per_span, cost)

        # spans the instrumentation adds per step: step + 4 phases,
        # plus bridge/catalyst spans on in situ steps; 16 is generous
        overhead = per_span * 16 * STEPS
        assert overhead < 0.05 * run_seconds, (
            f"no-op telemetry overhead {overhead:.6f}s is >= 5% of the "
            f"{run_seconds:.3f}s instrumented run"
        )


class TestBenchAndCli:
    def test_cli_trace_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace_out"
        rc = main([
            "trace", "--case", "cavity", "--ranks", "2", "--steps", "2",
            "--interval", "2", "--output", str(out),
        ])
        assert rc == 0
        trace = json.loads((out / "trace.json").read_text())
        validate_nesting(trace)
        assert (out / "metrics.prom").read_text()
        assert json.loads((out / "telemetry.json").read_text())["ranks"] == [0, 1]
        captured = capsys.readouterr().out
        assert "span summary" in captured and "solver.step" in captured
        assert "memory high-water marks" in captured
