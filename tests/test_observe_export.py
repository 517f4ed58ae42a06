"""Export-format tests: Chrome trace JSON round-trip, Prometheus text."""

import json
import re

import pytest

from repro.observe import (
    MetricsRegistry,
    TelemetrySession,
    chrome_trace,
    flame_summary,
    validate_nesting,
)
from repro.observe.tracer import InstantEvent, SpanEvent

from test_observe import FakeClock


def _traced_session() -> TelemetrySession:
    """Two ranks, deterministic clock, nested spans + one instant."""
    clock = FakeClock()
    session = TelemetrySession("golden", clock=clock)
    for rank in range(2):
        with session.activate(rank) as tel:
            with tel.tracer.span("solver.step", step=1):
                with tel.tracer.span("solver.pressure"):
                    pass
            tel.tracer.instant("fault.drop_step", step=1)
    return session


class TestChromeTrace:
    def test_golden_structure(self):
        # hand-built events with known timestamps -> exact golden JSON
        events = [
            SpanEvent(name="outer", path="outer", ts=10.0, dur=4.0, rank=0),
            SpanEvent(name="inner", path="outer/inner", ts=11.0, dur=2.0,
                      rank=0, args={"step": 3}),
            InstantEvent(name="fault.x", ts=12.0, rank=1),
        ]
        trace = chrome_trace(events, process_name="test")
        assert trace == {
            "traceEvents": [
                {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                 "args": {"name": "test"}},
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
                 "args": {"name": "rank 0"}},
                {"ph": "M", "name": "thread_sort_index", "pid": 0, "tid": 0,
                 "args": {"sort_index": 0}},
                {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1,
                 "args": {"name": "rank 1"}},
                {"ph": "M", "name": "thread_sort_index", "pid": 0, "tid": 1,
                 "args": {"sort_index": 1}},
                {"ph": "X", "name": "outer", "cat": "repro", "ts": 0.0,
                 "dur": 4e6, "pid": 0, "tid": 0, "args": {}},
                {"ph": "X", "name": "inner", "cat": "repro", "ts": 1e6,
                 "dur": 2e6, "pid": 0, "tid": 0, "args": {"step": 3}},
                {"ph": "i", "name": "fault.x", "cat": "repro", "ts": 2e6,
                 "s": "t", "pid": 0, "tid": 1, "args": {}},
            ],
            "displayTimeUnit": "ms",
        }

    def test_round_trips_through_json(self):
        session = _traced_session()
        trace = json.loads(json.dumps(session.chrome_trace()))
        validate_nesting(trace)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(xs) == 4 and len(instants) == 2
        for e in xs:
            assert e["pid"] == 0
            assert e["tid"] in (0, 1)
            assert e["ts"] >= 0.0 and e["dur"] > 0.0
        for e in instants:
            assert e["s"] == "t"
        # one track per rank, named in metadata
        names = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "rank 0", 1: "rank 1"}

    def test_spans_nest_per_track(self):
        trace = _traced_session().chrome_trace()
        by_tid = {}
        for e in trace["traceEvents"]:
            if e["ph"] == "X":
                by_tid.setdefault(e["tid"], []).append(e)
        for tid, spans in by_tid.items():
            outer = next(s for s in spans if s["name"] == "solver.step")
            inner = next(s for s in spans if s["name"] == "solver.pressure")
            assert outer["ts"] <= inner["ts"]
            assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_validate_nesting_rejects_overlap(self):
        trace = {
            "traceEvents": [
                {"ph": "X", "name": "a", "ts": 0.0, "dur": 10.0, "pid": 0, "tid": 0},
                {"ph": "X", "name": "b", "ts": 5.0, "dur": 10.0, "pid": 0, "tid": 0},
            ]
        }
        with pytest.raises(ValueError, match="overlaps"):
            validate_nesting(trace)

    def test_write_chrome_trace(self, tmp_path):
        session = _traced_session()
        path = session.write_chrome_trace(tmp_path / "sub" / "trace.json")
        validate_nesting(json.loads(path.read_text()))


class TestFlameSummary:
    def test_tree_order_and_totals(self):
        session = _traced_session()
        text = session.flame_summary()
        lines = text.splitlines()
        assert "golden" in lines[0]
        # child line is indented and follows its parent
        step_idx = next(i for i, l in enumerate(lines) if l.startswith("solver.step"))
        assert lines[step_idx + 1].startswith("  solver.pressure")

    def test_empty(self):
        assert "no spans" in flame_summary([])


_PROM_LINE = re.compile(
    r"^(?:"
    r"# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|"
    r"[a-zA-Z_:][a-zA-Z0-9_:]*(?:_bucket|_sum|_count)?"
    r"(?:\{[^}]*\})? -?(?:[0-9.e+-]+|\+Inf)"
    r")$"
)


class TestPrometheus:
    def test_every_line_parses(self):
        reg = MetricsRegistry(labels={"rank": "0"})
        reg.counter("repro_steps_total", "Steps completed").inc(3)
        reg.gauge("repro_cfl", "CFL", agg="max").set(0.25)
        reg.histogram("repro_step_seconds", "Step wall time").observe(0.02)
        text = reg.to_prometheus()
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert _PROM_LINE.match(line), f"unparseable line: {line!r}"

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.to_prometheus()
        assert 'h_bucket{le="0.1"} 1' in text
        assert 'h_bucket{le="1"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_labels_stamped(self):
        reg = MetricsRegistry(labels={"rank": "2"})
        reg.counter("c").inc()
        assert 'c{rank="2"} 1' in reg.to_prometheus()
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        text = reg.to_prometheus()
        assert 'h_bucket{rank="2",le="1"} 1' in text
        assert 'h_sum{rank="2"} 0.5' in text

    def test_session_merged_prometheus(self):
        session = _traced_session()
        for rank in range(2):
            with session.activate(rank) as tel:
                tel.metrics.counter("repro_c_total").inc()
        merged = session.to_prometheus()
        assert "repro_c_total 2" in merged
        per_rank = "".join(tel.metrics.to_prometheus()
                           for tel in session.telemetries())
        assert 'repro_c_total{rank="0"} 1' in per_rank
        assert 'repro_c_total{rank="1"} 1' in per_rank

    def test_json_export(self, tmp_path):
        session = _traced_session()
        path = session.write_json(tmp_path / "telemetry.json")
        data = json.loads(path.read_text())
        assert data["label"] == "golden"
        assert data["ranks"] == [0, 1]
        assert "memory" in data and "metrics" in data
