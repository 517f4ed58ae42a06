"""The end-to-end benchmark's view of ``repro`` must keep resolving.

``benchmarks/e2e`` may not be edited by a PR that claims a gain, and it
reaches into the program by *name*: ``api.py`` imports the public
surface, ``trace.ENTRYPOINTS`` lists the callables ``Tracer.install()``
wraps.  A refactor that renames one of them, or that makes a call site
hold a different object than the listed one, would not fail the
benchmark — it would silently zero a per-layer metric.  These tests
read the benchmark's files and change nothing in them.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load_trace():
    spec = importlib.util.spec_from_file_location("_e2e_trace", E2E / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entrypoints():
    return [s for specs in _load_trace().ENTRYPOINTS.values() for s in specs]


@pytest.mark.parametrize("spec", _entrypoints())
def test_entrypoint_resolves(spec):
    """Same resolution rules as ``Tracer._install_one``."""
    module_name, qualname = spec.split(":", 1)
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        target = getattr(module, cls_name).__dict__.get(attr)
        assert not isinstance(target, (staticmethod, classmethod, property)), spec
    else:
        target = getattr(module, qualname)
    assert callable(target), spec


def test_api_imports_resolve():
    tree = ast.parse((E2E / "api.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_contour_call_sites_hold_the_traced_object():
    """``install()`` rebinds module globals that *are* the listed
    function; a call site importing some other object (a private
    batched twin, a re-export wrapper) would escape
    ``catalyst.contour_s``."""
    from repro.catalyst import compositor, contour, pipeline

    assert pipeline.marching_tetrahedra is contour.marching_tetrahedra
    assert compositor.marching_tetrahedra is contour.marching_tetrahedra


def test_intransit_endpoint_dequeues_through_the_traced_get(tmp_path, monkeypatch):
    """Resolving is not enough: ``adios.get_wait_s`` is the time spent
    inside the class attribute ``SSTBroker.get``, so the endpoint must
    *call* it — at least once per streamed step — however it polls.
    The counting wrapper goes where ``Tracer._install_one`` puts its."""
    from repro.adios.engine import SSTBroker
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.parallel import run_spmd

    original = SSTBroker.__dict__["get"]
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(1)                  # list.append is atomic
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SSTBroker, "get", counting)
    steps = 3

    def case_builder(nsim):
        case = weak_scaled_rbc_case(nsim, elements_per_rank=2, order=3, dt=1e-3)
        return case.with_overrides(num_steps=steps)

    runner = InTransitRunner(
        case_builder, mode="checkpoint", ratio=1, num_steps=steps,
        arrays=("temperature",), output_dir=tmp_path,
    )
    sim, end = run_spmd(2, runner.run)
    assert sim.steps == end.steps == steps
    assert runner.last_broker.stats.steps_got == steps
    assert len(calls) >= steps
