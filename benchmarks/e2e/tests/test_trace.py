"""trace.py: self-time arithmetic on synthetic spans, and install() /
uninstall() leaving the program exactly as it was."""

import sys
import time

import pytest

import trace
from trace import Span, Tracer, self_times, summarize


def span(name, start, end, parent=-1, layer="x", thread="t", op=0, value=-1):
    return Span(name, layer, thread, start, end, parent, op, value)


class TestSelfTimes:
    def test_leaf_is_its_duration(self):
        assert self_times([span("a", 1.0, 3.5)]) == [2.5]

    def test_nested_children_are_subtracted_once_each(self):
        spans = [
            span("root", 0.0, 10.0),
            span("child", 1.0, 4.0, parent=0),
            span("grandchild", 2.0, 3.0, parent=1),
            span("child2", 5.0, 9.0, parent=0),
        ]
        # root: 10 - (3 + 4); the grandchild only reduces its own parent
        assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_covered_time_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 6.0, parent=0),
            span("b", 4.0, 8.0, parent=0),      # overlaps a on [4, 6]
            span("c", 8.0, 9.0, parent=0),      # touches b
        ]
        # union of children = [1, 9] = 8
        assert self_times(spans)[0] == pytest.approx(2.0)

    def test_child_is_clipped_to_its_parent(self):
        spans = [span("root", 2.0, 5.0), span("late", 4.0, 9.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(2.0)

    def test_child_entirely_outside_parent_is_ignored(self):
        spans = [span("root", 2.0, 5.0), span("stray", 6.0, 7.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(3.0)


class TestSummarize:
    def test_only_spans_starting_in_a_timed_window_count(self):
        spans = [
            span("warm", 0.0, 1.0, layer="nekrs"),
            span(trace.TIMED, 2.0, 10.0, layer=trace.DRIVER),
            span("step", 2.5, 6.5, parent=1, layer="nekrs"),
            span("cg", 3.0, 5.0, parent=2, layer="sem"),
            span("allreduce", 3.5, 4.0, parent=3, layer="parallel"),
            span("reduce", 3.6, 3.9, parent=4, layer="parallel"),
            span("pump", 7.0, 8.0, layer="serve", thread="relay"),
            span("late", 11.0, 12.0, layer="nekrs"),
        ]
        s = summarize(spans)
        assert s.timed_s == pytest.approx(8.0)
        assert s.window_s == pytest.approx(8.0)
        assert s.unattributed_s == pytest.approx(4.0)       # 8 - step's 4
        assert s.layer_self_s == pytest.approx(
            {"nekrs": 2.0, "sem": 1.5, "parallel": 0.5, "serve": 1.0}
        )
        assert s.thread_layer_self_s["relay"] == pytest.approx({"serve": 1.0})
        assert s.calls == {"step": 1, "cg": 1, "allreduce": 1, "reduce": 1, "pump": 1}
        # the nested reduce is not a second collective
        assert s.layer_roots["parallel"] == 1
        assert s.total_s["allreduce"] == pytest.approx(0.5)

    def test_kept_return_values_are_summed(self):
        spans = [
            span(trace.TIMED, 0.0, 5.0, layer=trace.DRIVER),
            span("draw", 1.0, 2.0, parent=0, value=120),
            span("draw", 2.0, 3.0, parent=0, value=80),
        ]
        assert summarize(spans).values == {"draw": 200}


def _repro_state():
    """id of every global of every loaded repro.* module and of every
    attribute of every class defined in them."""
    state = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in vars(mod).items():
            state[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for name, member in vars(value).items():
                    state[(mod_name, attr, name)] = id(member)
    return state


class TestInstall:
    def test_install_then_uninstall_restores_every_global(self):
        import api  # noqa: F401 - loads the repro modules the benchmark uses
        import pathlib

        before = _repro_state()
        write_bytes = pathlib.Path.write_bytes
        tracer = Tracer()
        tracer.install()
        try:
            during = _repro_state()
            changed = {k for k in before if during[k] != before[k]}
            # every entry point is rebound somewhere ...
            assert len(changed) >= sum(map(len, trace.ENTRYPOINTS.values())) - 1
            # ... including the by-name import in the module that calls it
            assert ("repro.catalyst.pipeline", "marching_tetrahedra") in changed
            assert ("repro.nekrs.solver", "NekRSSolver", "step") in changed
            assert pathlib.Path.write_bytes is not write_bytes
        finally:
            tracer.uninstall()
        assert _repro_state() == before
        assert pathlib.Path.write_bytes is write_bytes

    def test_wrapped_calls_record_nested_spans_with_op_ids(self):
        from repro.serve import ServeMesh

        tracer = Tracer()
        tracer.install()
        try:
            mesh = ServeMesh(relays=1, start=False)
            with tracer.span(trace.TIMED):
                mesh.publish("s", 0, 0.0, b"abc")
                mesh.publish("s", 1, 0.1, b"abd")
            mesh.close()
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        names = [s.name for s in spans]
        assert names == [trace.TIMED, "ServeMesh.publish", "FrameStore.put",
                         "ServeMesh.publish", "FrameStore.put"]
        publish = [i for i, s in enumerate(spans) if s.name == "ServeMesh.publish"]
        puts = [s for s in spans if s.name == "FrameStore.put"]
        assert [p.parent for p in puts] == publish
        assert [s.op for s in spans[1:]] == [1, 1, 2, 2]
        assert all(s.layer == "serve" for s in spans[1:])
        assert summarize(spans).calls["FrameStore.put"] == 2

    def test_unresolvable_entry_point_fails_and_leaves_nothing_patched(self):
        import repro.util.png as png

        original = png.encode_png
        tracer = Tracer({"util": ["repro.util.png:encode_png",
                                  "repro.util.png:no_such_function"]})
        with pytest.raises(AttributeError):
            tracer.install()
        assert png.encode_png is original

    def test_span_overhead_is_microseconds(self):
        tracer = Tracer()
        t0 = time.perf_counter()
        for _ in range(10000):
            with tracer.span("noop"):
                pass
        assert (time.perf_counter() - t0) / 10000 < 50e-6
        assert len(tracer.spans()) == 10000

    def test_chrome_trace_is_loadable(self, tmp_path):
        import json

        spans = [span("a", 1.0, 2.0, layer="nekrs", op=3),
                 span("b", 1.2, 1.5, parent=0, layer="sem", op=3, value=7)]
        path = tmp_path / "t.json"
        trace.write_chrome_trace(spans, path)
        events = json.loads(path.read_text())["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert [(e["name"], e["cat"], e["ts"], e["dur"]) for e in xs] == [
            ("a", "nekrs", 0.0, 1e6), ("b", "sem", 2e5, 3e5)]
        assert xs[1]["args"] == {"op": 3, "count": 7}
