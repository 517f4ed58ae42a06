"""Perf-gate benchmark: ``python -m repro bench --gate`` under pytest.

One check, marked ``perf``: every gated twin ratio against the best
ratio in the committed ``BENCH_<n>.json`` trajectory, so a CI lane can
fail on regressions without shelling out to the CLI.  The verdict's
logic is covered on synthetic numbers in ``tests/test_perf.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.perf.gate import KERNELS, run_gate

pytestmark = pytest.mark.perf


def test_gate_holds_against_the_committed_trajectory():
    root = Path(__file__).resolve().parents[1]
    before = sorted(p.name for p in root.glob("BENCH_*.json"))
    report = run_gate(root)
    print("\n" + report.render())
    assert report.ok, report.failures
    assert set(report.kernels) == set(KERNELS)
    assert sorted(p.name for p in root.glob("BENCH_*.json")) == before
