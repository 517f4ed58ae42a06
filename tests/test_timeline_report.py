"""Tests for timelines/Gantt and the consolidated report builder."""

import pytest

from repro.machine.timeline import Span, Timeline


class TestTimeline:
    def test_from_breakdown_serializes(self):
        tl = Timeline.from_breakdown(
            {"solve": 10.0, "io": 2.0}, order=["solve", "io"]
        )
        assert tl.total == 12.0
        assert tl.spans[0] == Span("solve", 0.0, 10.0)
        assert tl.spans[1] == Span("io", 10.0, 2.0)

    def test_default_order_largest_first(self):
        tl = Timeline.from_breakdown({"a": 1.0, "b": 5.0})
        assert tl.spans[0].category == "b"

    def test_zero_durations_skipped(self):
        tl = Timeline.from_breakdown({"a": 1.0, "b": 0.0})
        assert [s.category for s in tl.spans] == ["a"]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Timeline.from_breakdown({"a": -1.0})

    def test_render_proportions(self):
        tl = Timeline.from_breakdown({"big": 9.0, "small": 1.0})
        out = tl.render(width=50)
        big_line, small_line = out.splitlines()[0], out.splitlines()[1]
        assert big_line.count("#") > 5 * small_line.count("#")
        assert "90.0%" in big_line
        assert "total" in out

    def test_render_empty(self):
        assert "(empty" in Timeline().render()

    def test_render_tiny_width_rejected(self):
        with pytest.raises(ValueError):
            Timeline.from_breakdown({"a": 1.0}).render(width=3)

    def test_small_span_always_visible(self):
        tl = Timeline.from_breakdown({"huge": 1000.0, "blip": 0.01})
        out = tl.render(width=40)
        blip_line = [l for l in out.splitlines() if l.startswith("blip")][0]
        assert "#" in blip_line


class TestReport:
    def test_build_report_quick(self, tmp_path):
        """The full Section-4 report builds and contains every artifact."""
        from repro.bench.report import build_report

        report = build_report(quick=True)
        for marker in (
            "Figure 2", "Figure 3", "Storage economy", "Figure 5",
            "Figure 6", "spends its time", "Ablation",
        ):
            assert marker in report
        # tables actually rendered (header separators present)
        assert report.count("-+-") >= 6
