"""Unit tests for the repro.observe telemetry layer."""

import threading

import pytest

from repro.observe import (
    Counter,
    Gauge,
    Histogram,
    MemoryMeter,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Telemetry,
    TelemetrySession,
    Tracer,
    active,
    aggregate_peaks,
    get_telemetry,
)
from repro.observe.tracer import SpanEvent, flame_summary
from repro.parallel import run_spmd
from repro.util.timing import TimingStats


class FakeClock:
    """Deterministic monotonic clock for trace tests."""

    def __init__(self, tick: float = 1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        t = self.now
        self.now += self.tick
        return t


class TestTracer:
    def test_span_records_event(self):
        tr = Tracer(rank=3, clock=FakeClock())
        with tr.span("work", step=7):
            pass
        (event,) = tr.events
        assert event.name == "work"
        assert event.path == "work"
        assert event.rank == 3
        assert event.args == {"step": 7}
        assert event.dur == pytest.approx(1.0)

    def test_nested_spans_build_paths(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        paths = sorted(e.path for e in tr.events)
        assert paths == ["outer", "outer/inner", "outer/inner"]

    def test_span_records_on_exception(self):
        tr = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert [e.name for e in tr.events] == ["boom"]

    def test_instant(self):
        tr = Tracer(rank=1, clock=FakeClock())
        tr.instant("fault.drop_step", step=2)
        (event,) = tr.events
        assert event.name == "fault.drop_step"
        assert event.args == {"step": 2}

    def test_span_totals_self_time(self):
        clock = FakeClock()
        tr = Tracer(clock=clock)
        with tr.span("outer"):        # enter t=0
            with tr.span("inner"):    # enter t=1, exit t=2
                pass
        # outer exits at t=3: total 3, self 3 - 1 = 2 (in ms below)
        rows = [line.split() for line in flame_summary(tr.events).splitlines()]
        assert ["outer", "1", "3000.000", "2000.000"] in rows
        assert ["inner", "1", "1000.000", "1000.000"] in rows

    def test_concurrent_threads_have_separate_stacks(self):
        tr = Tracer(clock=FakeClock())
        barrier = threading.Barrier(2)

        def body():
            with tr.span("a"):
                barrier.wait()
                with tr.span("b"):
                    barrier.wait()

        threads = [threading.Thread(target=body) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        paths = sorted(e.path for e in tr.events)
        assert paths == ["a", "a", "a/b", "a/b"]

    def test_null_tracer_is_inert(self):
        tr = NullTracer()
        with tr.span("anything", k=1):
            tr.instant("nothing")
        assert tr.events == []
        assert not tr.enabled


class TestMetrics:
    def test_counter(self):
        c = Counter("repro_things_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name!")

    def test_gauge_aggs(self):
        for agg, expected in (("max", 5.0), ("min", 2.0), ("sum", 7.0), ("last", 2.0)):
            a = Gauge("g", agg=agg)
            b = Gauge("g", agg=agg)
            a.set(5)
            b.set(2)
            a.merge_from(b)
            assert a.value == expected, agg

    def test_histogram_buckets(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # upper bounds inclusive: 0.5 and 1.0 land in le=1
        assert h.counts == [2, 1, 1]
        assert h.stats.count == 4

    def test_histogram_merge_matches_single_stream(self):
        a = Histogram("h")
        b = Histogram("h")
        ref = TimingStats()
        for v in (0.001, 0.02, 0.3):
            a.observe(v)
            ref.add(v)
        for v in (1.5, 40.0):
            b.observe(v)
            ref.add(v)
        a.merge_from(b)
        assert a.stats.count == ref.count
        assert a.stats.mean == pytest.approx(ref.mean)
        assert a.stats.variance == pytest.approx(ref.variance)
        assert sum(a.counts) == 5

    def test_histogram_merge_bucket_mismatch(self):
        a = Histogram("h", buckets=(1.0,))
        b = Histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("c")
        c2 = reg.counter("c")
        assert c1 is c2
        with pytest.raises(TypeError):
            reg.gauge("c")

    def test_registry_merge_leaves_other_unchanged(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.merge(b)
        assert a.get("c").value == 3
        assert b.get("c").value == 2

    def test_read_backed_metrics_read_their_ledgers(self):
        ledger = {"a": 0, "b": 2}
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "x", read=lambda: ledger["a"])
        assert reg.counter("repro_x_total", read=lambda: ledger["b"]) is c
        g = reg.gauge("repro_y", agg="max", read=lambda: ledger["a"])
        reg.gauge("repro_y", agg="max", read=lambda: ledger["b"])
        assert (c.value, g.value) == (2, 2)      # sum / agg over readers
        ledger["a"] = 5
        assert (c.value, g.value) == (7, 5)      # read when asked
        with pytest.raises(TypeError):
            c.inc()
        with pytest.raises(TypeError):
            g.set(1)
        merged = MetricsRegistry().merge(reg)
        ledger["a"] = 9
        assert merged.get("repro_x_total").value == 7   # a plain number
        merged.get("repro_x_total").inc()                # and a plain counter
        # a read-backed counter is exported from its first count on
        zero = reg.counter("repro_z_total", read=lambda: 0)
        assert zero.value == 0 and "repro_z_total" not in reg.to_prometheus()
        assert "repro_y 9" in reg.to_prometheus()

    def test_null_registry_ignores_readers(self):
        reg = NullMetricsRegistry()
        reg.counter("repro_x_total", "x", {"l": "1"}, read=lambda: 1).inc()
        reg.gauge("repro_y", agg="sum", const_labels={}, read=lambda: 1).set(2)
        assert list(reg) == []

    def test_reduce_across_spmd_ranks(self):
        def body(comm):
            reg = MetricsRegistry(labels={"rank": str(comm.rank)})
            reg.counter("repro_steps_total").inc(comm.rank + 1)
            reg.histogram("repro_t", buckets=(1.0,)).observe(comm.rank)
            merged = reg.reduce(comm)
            return merged.get("repro_steps_total").value, merged.get("repro_t").stats.count

        results = run_spmd(3, body)
        # every rank sees the same merged totals: 1+2+3 and 3 samples
        assert all(r == (6.0, 3) for r in results)


class TestMemoryMeter:
    def test_allocate_free_peak(self):
        m = MemoryMeter()
        m.allocate("dev", 100)
        m.allocate("dev", 50)
        m.free("dev", 120)
        assert m.as_dict()["current"]["dev"] == 30
        assert m.peaks()["dev"] == 150

    def test_observe_sets_level(self):
        m = MemoryMeter()
        m.observe("staging", 100)
        m.observe("staging", 40)
        m.observe("staging", 70)
        assert m.as_dict()["current"]["staging"] == 70
        assert m.peaks()["staging"] == 100

    def test_over_free_clamps(self):
        m = MemoryMeter()
        m.allocate("q", 10)
        m.free("q", 50)
        assert m.as_dict()["current"]["q"] == 0
        assert m.total_peak == 10

    def test_total_peak_vs_sum_of_peaks(self):
        m = MemoryMeter()
        m.observe("a", 100)
        m.observe("a", 0)
        m.observe("b", 100)
        # a and b never coexist: true HWM 100, decomposed sum 200
        assert m.total_peak == 100
        assert m.as_dict()["sum_of_peaks"] == 200

    def test_aggregate_peaks(self):
        meters = [MemoryMeter(rank=r) for r in range(2)]
        meters[0].observe("solver", 100)
        meters[1].observe("solver", 150)
        meters[1].observe("staging", 30)
        assert aggregate_peaks(meters) == {"solver": 250, "staging": 30}


class TestTelemetryWiring:
    def test_default_is_noop(self):
        tel = get_telemetry()
        assert not tel.enabled
        with tel.tracer.span("x"):
            tel.metrics.counter("c").inc()
            tel.memory.allocate("m", 10)
        assert tel.tracer.events == []

    def test_active_restores_previous(self):
        outer = Telemetry.create(rank=0)
        inner = Telemetry.create(rank=1)
        with active(outer):
            with active(inner):
                assert get_telemetry() is inner
            assert get_telemetry() is outer
        assert not get_telemetry().enabled

    def test_thread_local_isolation(self):
        session = TelemetrySession("iso")
        seen = {}

        def body(comm):
            with session.activate(comm.rank):
                get_telemetry().tracer.instant("mark", rank=comm.rank)
                seen[comm.rank] = get_telemetry().rank
            return get_telemetry().enabled

        enabled_after = run_spmd(3, body)
        assert seen == {0: 0, 1: 1, 2: 2}
        assert not any(enabled_after)  # activate() restored the no-op default
        for rank in range(3):
            events = session.rank(rank).tracer.events
            assert [e.args["rank"] for e in events] == [rank]

    def test_session_merged_views(self):
        clock = FakeClock()
        session = TelemetrySession("m", clock=clock)
        for rank in range(2):
            with session.activate(rank) as tel:
                with tel.tracer.span("work"):
                    pass
                tel.metrics.counter("repro_c_total").inc()
                tel.memory.observe("solver", 100)
        assert session.ranks == [0, 1]
        assert len(session.events()) == 2
        assert session.merged_metrics().get("repro_c_total").value == 2
        assert session.memory_aggregate() == {"solver": 200}
        assert session.memory_aggregate_total() == 200
        spans = [e for e in session.events() if isinstance(e, SpanEvent)]
        assert {e.rank for e in spans} == {0, 1}
