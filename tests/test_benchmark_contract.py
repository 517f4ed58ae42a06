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


def _run_one_plus_one(tmp_path, mode, steps, **kwargs):
    """A 1 sim + 1 endpoint in-transit run, no telemetry installed."""
    from repro.insitu import InTransitRunner
    from repro.nekrs.cases import weak_scaled_rbc_case
    from repro.parallel import run_spmd

    def case_builder(nsim):
        case = weak_scaled_rbc_case(nsim, elements_per_rank=2, order=3, dt=1e-3)
        return case.with_overrides(num_steps=steps)

    runner = InTransitRunner(
        case_builder, mode=mode, ratio=1, num_steps=steps,
        arrays=("temperature",), output_dir=tmp_path, **kwargs,
    )
    sim, end = run_spmd(2, runner.run)
    return runner, sim, end


def test_intransit_endpoint_dequeues_through_the_traced_get(tmp_path, monkeypatch):
    """Resolving is not enough: ``adios.get_wait_s`` is the time spent
    inside the class attribute ``SSTBroker.get``, so the endpoint must
    *call* it — at least once per streamed step — however it polls.
    The counting wrapper goes where ``Tracer._install_one`` puts its."""
    from repro.adios.engine import SSTBroker

    original = SSTBroker.__dict__["get"]
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(1)                  # list.append is atomic
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SSTBroker, "get", counting)
    steps = 3
    runner, sim, end = _run_one_plus_one(tmp_path, "checkpoint", steps)
    assert sim.steps == end.steps == steps
    assert runner.last_broker.stats.steps_got == steps
    assert len(calls) >= steps


# -- the numbers the benchmark reads with no telemetry installed -------------


def test_intransit_reports_insitu_seconds_without_telemetry(tmp_path):
    """``rbc_intransit``'s ``driver.blocked_ms_*`` is the simulation
    rank's ``extra["insitu_seconds"] / steps``; the benchmark installs
    no telemetry, so the number has to be always on."""
    from repro.observe import get_telemetry

    assert not get_telemetry().enabled
    _runner, sim, end = _run_one_plus_one(tmp_path, "catalyst", 2, image_size=32)
    assert (sim.role, end.role) == ("simulation", "endpoint")
    assert sim.extra["insitu_seconds"] > 0
    assert end.images > 0


def test_bridge_insitu_seconds_grows_on_each_update():
    from repro.insitu import Bridge
    from repro.nekrs import NekRSSolver
    from repro.nekrs.cases import lid_cavity_case
    from repro.parallel import SerialCommunicator
    from repro.sensei.analysis_adaptor import AnalysisAdaptor

    class Idle(AnalysisAdaptor):
        def execute(self, data):
            return True

    case = lid_cavity_case(reynolds=100, elements=2, order=3, num_steps=1)
    bridge = Bridge(NekRSSolver(case, SerialCommunicator()), analysis=Idle())
    seen = [bridge.insitu_seconds]
    for step in (1, 2, 3):
        bridge.update(step, 0.1 * step)
        seen.append(bridge.insitu_seconds)
    assert seen[0] == 0.0
    assert all(later > earlier for earlier, later in zip(seen, seen[1:]))


def test_uninstrumented_stage_span_is_the_shared_null_span():
    """The four e2e workloads run on this path: a span tagged
    ``stage=`` must stay the allocation-free no-op."""
    from repro.observe import get_telemetry
    from repro.observe.tracer import _NULL_SPAN

    tracer = get_telemetry().tracer
    assert tracer.span("solver.step", step=1, stage="solve", stream=0) is _NULL_SPAN
    assert tracer.span("bridge.execute", step=1) is _NULL_SPAN


# -- one instrumentation call per site ---------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_pipeline_stages_are_tagged_spans_and_nothing_else():
    """Outside ``repro/observe`` a pipeline stage is recorded one way:
    ``tracer.span(..., stage=...)``.  No call site feeds a live
    collector's ``stage()`` by hand or keeps a ``StopWatch`` beside the
    span (``wire`` stays a put/got mark pair, no single rank sees it)."""
    tagged = set()
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "observe" in path.parents:
            continue
        source = path.read_text()
        where = path.relative_to(SRC).as_posix()
        assert "StopWatch" not in source, where
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                assert node.attr != "watch", f"{where}:{node.lineno}"
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            assert node.func.attr != "stage", f"{where}:{node.lineno}"
            if node.func.attr == "span":
                tagged.update(
                    kw.value.value for kw in node.keywords
                    if kw.arg == "stage" and isinstance(kw.value, ast.Constant)
                )
    assert {"solve", "marshal", "render", "composite", "encode", "deliver"} <= tagged


# -- one buffer pool, one frame writer ---------------------------------------


def test_device_arena_is_the_arena_the_benchmark_reads():
    """``workloads.py`` reports ``api.get_arena().stats()``; the device
    pool is the same class, so it answers with the same keys."""
    from repro.occa import Device
    from repro.perf.arena import get_arena

    device_arena, host_arena = Device().arena, get_arena()
    assert type(device_arena) is type(host_arena)
    for arena in (device_arena, host_arena):
        assert {"hits", "misses", "pooled_bytes", "pooled_arrays"} <= set(arena.stats())


def test_one_pool_class_and_one_mode_independent_frame_writer():
    """Source scan: only ``WorkspaceArena`` pools (``_RawArenaView``
    adapts it for kernel code), and the wire layer has no reference twin
    and no ``naive_mode()`` branch to drift from."""
    borrowers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "borrow"
                for item in node.body
            ):
                borrowers.append(node.name)
    assert sorted(borrowers) == ["WorkspaceArena", "_RawArenaView"]
    for path in sorted((SRC / "adios").glob("*.py")):
        assert "config.enabled" not in path.read_text(), path.name
    marshal = ast.parse((SRC / "adios" / "marshal.py").read_text())
    names = {n.name for n in ast.walk(marshal)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert {"marshal_step", "unmarshal_step"} <= names
    assert not [n for n in names if n.endswith("_reference")]


def test_residency_is_not_a_second_renderer():
    """Source scan: the render code never learns where its arrays live.
    ``repro.catalyst`` names no ``repro.occa``; ``._raw(`` is unwrapped
    only by ``repro.occa`` and the data adaptor that serves the
    fragments; and in the viz layers ``DeviceMemory`` is constructed
    only where the finished frame is copied out."""
    unwraps, wraps = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        if rel.startswith("catalyst/"):
            assert "repro.occa" not in text, rel
        if rel.startswith("occa/"):
            continue
        if "._raw(" in text:
            unwraps.append(rel)
        if "DeviceMemory(" in text and not rel.startswith("nekrs/"):
            wraps.append(rel)  # nekrs: the solver wrapping its own fields
    assert unwraps == ["insitu/adaptor.py"]
    assert wraps == ["sensei/analyses/catalyst_adaptor.py"]


def test_sleep_call_sites_only_shrink():
    """Source scan: ``time.sleep(`` survives at four sites — the fleet
    coordinator's ``rest``, retry backoff, an injected fault delay and
    ``observe top --url``'s refresh — and never in ``repro.bench``,
    whose cost is measured by ``benchmarks/e2e``.  A new site fails
    here; removing one means lowering the bound."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sleep"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("time", "_time")):
                sites.append(f"{rel}:{node.lineno}")
    assert not [s for s in sites if s.startswith("bench/")], sites
    assert len(sites) <= 4, sites


def test_pressure_iteration_count_cannot_decay_silently():
    """The benchmark's pebble shape, steps 2-6 on one rank: the two-level
    preconditioner holds the pressure solve at 45-46 iterations (156-161
    under Jacobi alone), and the Jacobi Helmholtz solves stay at 3 x 8.
    Counts, not clocks: they repeat exactly."""
    from repro.nekrs import NekRSSolver
    from repro.nekrs.cases import pebble_bed_case
    from repro.parallel import SerialCommunicator

    case = pebble_bed_case(num_pebbles=5, elements_per_unit=4, order=5,
                           dt=1e-3, viscosity=5e-2)
    reports = NekRSSolver(case, SerialCommunicator()).run(6)[1:]
    assert all(r.pressure_iterations <= 60 for r in reports), reports
    assert all(r.velocity_iterations == 24 for r in reports), reports
    assert not any(r.unconverged_solves for r in reports)


def test_the_pressure_preconditioner_is_not_an_option():
    """One preconditioner: no .par key, config field or CLI flag names it."""
    for rel in ("nekrs/config.py", "nekrs/parfile.py", "cli.py"):
        assert "preconditioner" not in (SRC / rel).read_text().lower(), rel


def test_the_gate_measures_twins_without_the_bench_drivers():
    """A gate row is a twin ratio of code that ships; ``repro.perf``
    (imported by every hot path) never pulls ``repro.bench`` in."""
    perf = Path(__file__).resolve().parents[1] / "src" / "repro" / "perf"
    for path in sorted(perf.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(
                n == "repro.bench" or n.startswith("repro.bench.") for n in names
            ), f"{path.name}:{node.lineno}"


def test_every_gate_row_is_in_the_newest_committed_bench_file():
    """A renamed kernel fails here, not ten PRs later on a gate run."""
    from repro.perf.gate import KERNELS, SCHEMA, load_trajectory

    fname, newest = load_trajectory(Path(__file__).resolve().parents[1])[-1]
    assert newest["schema"] == SCHEMA, fname
    assert set(KERNELS) == set(newest["kernels"]), fname
