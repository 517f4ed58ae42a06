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
import inspect
import os
import re
import subprocess
import sys
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


def test_the_benchmarked_surface_leaves_networkx_unloaded():
    """Hop counts are closed-form: importing every name ``api.py`` lists
    in a fresh interpreter keeps networkx (a test oracle only) out of
    ``sys.modules``, and so out of every workload's resident set."""
    tree = ast.parse((E2E / "api.py").read_text())
    imports = [ast.unparse(n) for n in tree.body if isinstance(n, ast.ImportFrom)]
    assert imports
    code = "\n".join(imports + ["import sys", "print('networkx' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=str(E2E.parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_src_never_imports_scipy():
    """scipy is a test oracle, not a runtime dependency: no module under
    ``src/`` imports it, so the package runs on numpy alone."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [(path.relative_to(SRC).as_posix(), name)
                          for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []


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


def test_each_ledger_is_counted_once():
    """Source scan: a metric that reads its owner's ledger (``read=``)
    is never also incremented or set through a plain ``counter(`` /
    ``gauge(`` call, and the twin-increment machinery is gone."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                read = any(k.arg == "read" for k in node.keywords)
                calls.append((node.args[0].value, read,
                              path.relative_to(SRC).as_posix()))
    read_backed = {name for name, read, _ in calls if read}
    assert {
        "repro_pcie_h2d_bytes_total", "repro_pcie_d2h_bytes_total",
        "repro_sst_steps_put_total", "repro_sst_bytes_put_total",
        "repro_sst_steps_got_total", "repro_sst_bytes_got_total",
        "repro_bridge_invocations_total", "repro_bridge_degraded_steps_total",
        "repro_catalyst_images_total", "repro_catalyst_image_bytes_total",
        "repro_router_route_total", "repro_fleet_commits_total",
        "repro_fleet_steals_total", "repro_serve_cache_hits_total",
        "repro_serve_cache_misses_total", "repro_serve_frames_dropped_total",
        "repro_serve_frames_sent_total", "repro_serve_bytes_out_total",
        "repro_perf_arena_hits",
    } <= read_backed
    twins = sorted((name, rel) for name, read, rel in calls
                   if not read and name in read_backed)
    assert twins == []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for word in ("_mirror_metrics", "_mirrored_", "_pcie_counters",
                     "publish_stats"):
            assert word not in text, (path.relative_to(SRC).as_posix(), word)


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
    """Source scan: ``time.sleep(`` survives at three sites — retry
    backoff, an injected fault delay and ``observe top --url``'s
    refresh — and never in ``repro.bench`` (its cost is measured by
    ``benchmarks/e2e``) or on the in-transit stream (``repro.adios``,
    ``repro.fleet``), which waits on the broker's condition.  A new
    site fails here; removing one means lowering the bound."""
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
    assert not [s for s in sites
                if s.startswith(("bench/", "adios/", "fleet/"))], sites
    assert len(sites) <= 3, sites


def test_pressure_iteration_count_cannot_decay_silently():
    """The benchmark's pebble shape, steps 2-6 on one rank.  Every solve
    stops at ``tol * ||b||`` and starts from what the last steps know:
    the two-level pressure solve from the projection onto its last
    solutions falls 46, 44, 40, 37, 34 (46 to 38 when it started from
    the last step's p; 45-46 a step when its tolerance was relative to
    the guess's residual; 156-161 under Jacobi alone), and the three
    Jacobi velocity solves from their EXT extrapolation take 24, 21,
    20, 20, 18 (23, 21, 20, 20, 20 from the last step's field; 3 x 8
    from a cold start).  Counts, not clocks: they repeat exactly."""
    from repro.nekrs import NekRSSolver
    from repro.nekrs.cases import pebble_bed_case
    from repro.parallel import SerialCommunicator

    case = pebble_bed_case(num_pebbles=5, elements_per_unit=4, order=5,
                           dt=1e-3, viscosity=5e-2)
    reports = NekRSSolver(case, SerialCommunicator()).run(6)[1:]
    pressure = [r.pressure_iterations for r in reports]
    assert max(pressure) <= 46 and max(pressure[1:]) <= 44, reports
    assert pressure[-1] <= 34, reports
    assert [r.velocity_iterations for r in reports] == [24, 21, 20, 20, 18], reports
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


# -- one compressor ----------------------------------------------------------


def test_one_lossy_pipeline_and_one_storage_entropy_stage():
    """Source scan: ``delta-rle`` is the only lossy pipeline (the
    bit-plane codec, SZ-lite and the unchecked RBP1 frame are gone), and
    deflate runs in exactly two places — PNG encoding and the BP file
    engine — so the wire codec never grows a second entropy stage."""
    deflaters = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for word in ("bitplane", "BITPLANE", "truncate_mantissa",
                     "byte_shuffle", "SZL1", "compress_field",
                     "CompressedIO", "_MAGIC_V1"):
            assert word not in text, (rel, word)
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("compress", "compressobj")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "zlib"):
                deflaters.add(rel)
    assert deflaters == {"util/png.py", "adios/engine.py"}
    assert not (SRC / "util" / "compress.py").exists()
    assert not (SRC / "sensei" / "analyses" / "compressed_io.py").exists()


def test_one_serving_hub_and_a_fixed_endpoint_fleet():
    """The ``serve_fanout`` surface stands on one hub with one pump
    thread; the relay shards, the edge cache, the autoscaler and its
    parked reserve are gone."""
    import threading

    import repro.serve
    from repro.fleet import EndpointState
    from repro.serve import ServeMesh

    with pytest.raises(ValueError):
        ServeMesh(relays=2, start=False)
    before = set(threading.enumerate())
    mesh = ServeMesh(relays=1, history=4, default_depth=2)
    try:
        started = set(threading.enumerate()) - before
        assert len(started) == 1, started
        session = mesh.connect(label="client-0")
        frame = mesh.publish("main", 0, 0.0, b"frame-0")
        assert session.take(timeout=5) is frame
        late = mesh.connect(label="client-1", backfill=True)
        assert [f.step for f in late.drain()] == [0]
        assert [f.step for f in mesh.relay_replay("main")] == [0]
        stats = mesh.stats()
        assert stats["stalls"] == 0 and stats["frames_published"] == 1
        assert stats["cache"]["hit_rate"] == 0.0
        assert stats["store"]["payload_bytes"] == len(b"frame-0")
    finally:
        mesh.close()
    assert not any(t.is_alive() for t in started)
    for name in ("RelayHub", "EdgeCache"):
        assert not hasattr(repro.serve, name), name
    assert importlib.util.find_spec("repro.fleet.autoscaler") is None
    assert "PARKED" not in EndpointState.__members__
    for path in sorted(SRC.rglob("*.py")):
        assert "POLL_INTERVAL_S" not in path.read_text(), path


# -- one transport -----------------------------------------------------------


def _names_a_communicator(node) -> bool:
    """``comm``, ``self.comm``, ``sub_comm``, ``self._comm`` ..."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    return "comm" in name.lower()


def test_only_repro_parallel_reaches_into_a_communicator():
    """Source scan: outside ``repro.parallel`` a communicator is driven
    through its public methods only — no ``comm._x`` attribute and no
    ``getattr(comm, "_x")`` — so a new transport ports
    ``_World.exchange`` and ``send`` / ``recv`` and nothing else."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("parallel/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and _names_a_communicator(node.value)):
                offenders.append(f"{rel}:{node.lineno} .{node.attr}")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr", "setattr")
                    and len(node.args) >= 2
                    and _names_a_communicator(node.args[0])
                    and isinstance(node.args[1], ast.Constant)
                    and str(node.args[1].value).startswith("_")):
                offenders.append(f"{rel}:{node.lineno} {node.func.id}")
    assert offenders == []


# -- every module is reached -------------------------------------------------

#: the modules nothing outside the tests reaches, and why each stays
KEPT = {
    "repro.nekrs.restart": "its bit-exact continuation tests are the only "
    "check that NekRSSolver's persistent state is complete",
    "repro.vtkdata.readers": "the test oracle that round-trips every "
    "written artifact",
}


def _absolute_imports(nodes):
    """``(module, name, bound_as)`` per absolute import under `nodes`;
    `name` is None for ``import a.b``."""
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_every_src_module_is_reached_outside_tests():
    """Source scan: a module under ``src/repro`` stays only if something
    outside the tests reaches it.  The roots are the ``python -m``
    entries (``repro``, ``repro.cli``, ``repro.bench.*``), the imports
    of ``examples/`` and ``benchmarks/e2e/``, and the analysis each XML
    type name in ``examples/``, ``repro.bench`` or the CLI constructs;
    a reached module's imports are reached in turn.  A package import
    reaches what its ``__init__`` re-exports, and an ``__init__``
    reaches nothing by itself."""
    repo = SRC.parents[1]
    files = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    packages = {m for m, path in files.items() if path.name == "__init__.py"}

    def top_level(module):
        return [node for node in ast.parse(files[module].read_text()).body
                if isinstance(node, (ast.Import, ast.ImportFrom))]

    def resolve(module, name):
        if name is not None and f"{module}.{name}" in files:
            return resolve(f"{module}.{name}", None)
        if module not in packages:
            return {module} & files.keys()
        return {m for sub, sub_name, bound in _absolute_imports(top_level(module))
                if name is None or bound == name
                for m in resolve(sub, sub_name)}

    def reaches(path):
        return {m for module, name, _ in _absolute_imports([ast.parse(path.read_text())])
                for m in resolve(module, name)}

    roots = {"repro.__main__", "repro.cli"}
    roots |= {m for m in files if m.startswith("repro.bench.")}
    for path in [*repo.glob("examples/*.py"), *repo.glob("benchmarks/e2e/*.py")]:
        roots |= reaches(path)

    configs = "".join(path.read_text() for path in [
        *repo.glob("examples/*.py"), *(SRC / "bench").glob("*.py"), SRC / "cli.py",
    ])
    registry = "repro.sensei.analyses"
    bound = {b: resolve(m, n)
             for m, n, b in _absolute_imports(top_level(registry))}
    factories = {n.name: n for n in ast.parse(files[registry].read_text()).body
                 if isinstance(n, ast.FunctionDef)}
    table = next(n for n in ast.walk(factories["default_factories"])
                 if isinstance(n, ast.Dict))
    for key, factory in zip(table.keys, table.values):
        if f'type="{key.value}"' not in configs:
            continue
        body = [factories[factory.id]]
        names = {**bound, **{b: resolve(m, n) for m, n, b in _absolute_imports(body)}}
        roots |= {m for node in ast.walk(body[0]) if isinstance(node, ast.Name)
                  for m in names.get(node.id, ())}

    reached, todo = set(), sorted(roots)
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(reaches(files[module]))

    unreached = set(files) - packages - reached
    assert sorted(unreached - set(KEPT)) == [], "reached only by tests"
    assert sorted(set(KEPT) - unreached) == [], "reached now: drop from KEPT"


# -- every public name is reached --------------------------------------------

#: the public names nothing outside the tests reaches, and why each stays
KEPT_NAMES = {
    "vtkdata/readers.py::read_vtu": "test oracle: reads back every written "
    ".vtu (its module is in KEPT)",
    "vtkdata/readers.py::read_vtm": "test oracle: reads back every written .vtm",
    "util/apng.py::apng_info": "test oracle: parses the APNGs the serving "
    "transport streams",
    "observe/metrics.py::naming_violations": "test oracle: checks the metric "
    "names the program registers",
    "observe/tracer.py::validate_nesting": "test oracle: checks the spans "
    "the program records nest",
    "adios/engine.py::BPFileReaderEngine": "test oracle: reads back the .bp "
    "series that file-staged streams and compressed_io dumps write",
    "parallel/runtime.py::dump_thread_stacks": "test infrastructure: the "
    "conftest watchdog prints a wedged run's stacks with it",
    "serve/transport.py::shutdown_all": "test infrastructure: the conftest "
    "leak guard stops every server a test left running",
    "faults/injector.py::FaultLog.accounted": "the injected == detected + "
    "recovered + degraded invariant every fault suite asserts",
    "faults/injector.py::FaultLog.snapshot": "the per-kind fault record the "
    "fault suites compare across runs of one seed",
    "adios/engine.py::SSTBroker.mark_writer_down": "fault signalling: "
    "unblocks readers waiting on a writer that is gone",
    "nekrs/restart.py::write_restart": "its bit-exact continuation tests "
    "check NekRSSolver's persistent state (module in KEPT)",
    "nekrs/restart.py::read_restart": "the other half of write_restart",
}

_ENTRYPOINT = r"(repro(?:\.\w+)+):(\w+)(?:\.(\w+))?"


def _defs(tree):
    """``(qualname, node, class_name)`` for each public top-level function
    and class, each private top-level function, and each public method
    or property of a top-level class (``class_name`` is None for a
    top-level def)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or (
                not isinstance(node, ast.ClassDef) and not node.name.startswith("__")):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item, node.name


def _first_line(node) -> int:
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _counted_nodes(tree, is_init):
    """The nodes a reference may come from: all of a module, or only the
    function bodies of an ``__init__`` (its imports and ``__all__`` are
    re-exports, not uses)."""
    if not is_init:
        yield from ast.walk(tree)
        return
    for top in ast.walk(tree):
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from ast.walk(top)


class _Sources:
    """What the name and option passes read: every module under
    ``src/repro`` and the callers outside the tests (``examples/``, the
    ``benchmarks/*.py`` figure suite and all of ``benchmarks/e2e/``),
    parsed once, with each file's import bindings."""

    def __init__(self):
        repo = SRC.parents[1]
        self.modules = {}
        for path in SRC.rglob("*.py"):
            parts = path.relative_to(SRC.parent).with_suffix("").parts
            self.modules[path] = ".".join(
                parts[:-1] if parts[-1] == "__init__" else parts
            )
        self.packages = {m for path, m in self.modules.items()
                         if path.name == "__init__.py"}
        self.names = set(self.modules.values())
        self.trees = {path: ast.parse(path.read_text()) for path in self.modules}
        sources = [*repo.glob("examples/*.py"), *repo.glob("benchmarks/*.py"),
                   *repo.glob("benchmarks/e2e/**/*.py")]
        self.trees.update({path: ast.parse(path.read_text()) for path in sources})
        self.bound = {path: self._bindings(path) for path in self.trees}
        self.reexports = {m: self.bound[path] for path, m in self.modules.items()
                          if m in self.packages}
        # ``benchmarks/e2e`` imports its sibling ``api.py`` by plain name
        self.reexports.update({path.stem: self.bound[path]
                               for path in repo.glob("benchmarks/e2e/*.py")})

    def absolute(self, path, node):
        if node.level == 0:
            return node.module
        base = self.modules[path].split(".")
        base = base[: len(base) - node.level + (path.name == "__init__.py")]
        return ".".join(base + ([node.module] if node.module else []))

    def _bindings(self, path):
        """name -> ("module", M) or ("name", (M, name)) for every import."""
        bound = {}
        for node in ast.walk(self.trees[path]):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = ("module", alias.name)
                    else:
                        top = alias.name.split(".")[0]
                        bound[top] = ("module", top)
            elif isinstance(node, ast.ImportFrom):
                module = self.absolute(path, node)
                for alias in node.names:
                    full = f"{module}.{alias.name}"
                    kind = (("module", full) if full in self.names
                            else ("name", (module, alias.name)))
                    bound[alias.asname or alias.name] = kind
        return bound

    def resolve(self, module, name):
        """(module, name) and what a package's re-export points it at."""
        yield module, name
        kind = self.reexports.get(module, {}).get(name)
        if kind and kind[0] == "name":
            yield from self.resolve(*kind[1])

    def attribute_target(self, path, node):
        """The ``(module, name)`` keys an ``alias.name`` chain whose root
        is bound to a module reaches; empty for any other attribute."""
        chain, value = [node.attr], node.value
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        kind = isinstance(value, ast.Name) and self.bound[path].get(value.id)
        if not (kind and kind[0] == "module"):
            return []
        module, chain = kind[1], chain[::-1]
        while chain[:-1] and f"{module}.{chain[0]}" in self.names:
            module = f"{module}.{chain.pop(0)}"
        return list(self.resolve(module, chain[0]))


_SOURCES = []


def _sources() -> _Sources:
    if not _SOURCES:
        _SOURCES.append(_Sources())
    return _SOURCES[0]


def test_every_public_name_is_reached_outside_tests():
    """Source scan, one level finer than the module scan above: a public
    function, class, method or property under ``src/repro``, and a
    private top-level function, stays only if something outside its own
    body and outside the tests refers to it.  References come from
    ``src/`` (an ``__init__`` by its function bodies only, which is how
    an XML ``type=`` name reaches its analysis), ``examples/``, all of
    ``benchmarks/e2e/`` (with the ``module:Class.method`` strings of
    ``trace.ENTRYPOINTS``) and the ``benchmarks/*.py`` figure suite.

    A top-level name resolves by module: ``from M import name``,
    ``alias.name`` with the alias bound to ``M``, to its package or to
    a package that re-exports it, or a bare name inside ``M``.  A
    method resolves by name: any ``.name`` attribute or ``getattr``
    string reaches it, and so does overriding an attribute of a base
    class.  Dunders are not public and never listed."""
    src = _sources()
    top_refs = {}     # (module, name) -> [(path, line)]
    attr_refs = {}    # attribute name -> [(path, line)]

    def note(table, key, path, line):
        table.setdefault(key, []).append((path, line))

    for path, tree in src.trees.items():
        own = src.modules.get(path)
        bound = src.bound[path]
        for node in _counted_nodes(tree, path.name == "__init__.py" and own is not None):
            line = getattr(node, "lineno", 0)
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    for key in src.resolve(src.absolute(path, node), alias.name):
                        note(top_refs, key, path, line)
            elif isinstance(node, ast.Name):
                kind = bound.get(node.id)
                if kind and kind[0] == "name":
                    for key in src.resolve(*kind[1]):
                        note(top_refs, key, path, line)
                if own is not None:
                    note(top_refs, (own, node.id), path, line)
            elif isinstance(node, ast.Attribute):
                note(attr_refs, node.attr, path, line)
                for key in src.attribute_target(path, node):
                    note(top_refs, key, path, line)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                spec = re.fullmatch(_ENTRYPOINT, node.value)
                if spec:
                    note(top_refs, spec.group(1, 2), path, line)
                    if spec.group(3):
                        note(attr_refs, spec.group(3), path, line)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr", "setattr")
                    and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
                note(attr_refs, node.args[1].value, path, line)

    def outside(refs, path, node):
        return any(p != path or not _first_line(node) <= line <= node.end_lineno
                   for p, line in refs)

    unreached = {}
    for path, module in src.modules.items():
        for qualname, node, owner in _defs(src.trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if owner is None:
                refs = [r for m, n in {(module, name), (module.rpartition(".")[0], name)}
                        for r in top_refs.get((m, n), ())]
                if outside(refs, path, node):
                    continue
            else:
                if outside(attr_refs.get(name, ()), path, node):
                    continue
                cls = getattr(importlib.import_module(module), owner)
                if any(hasattr(base, name) for base in cls.__mro__[1:]):
                    continue
            key = f"{path.relative_to(SRC).as_posix()}::{qualname}"
            unreached[key] = node.end_lineno - _first_line(node) + 1

    listed = sorted(f"{k} ({n} lines)" for k, n in unreached.items() if k not in KEPT_NAMES)
    assert not listed, "reached only by tests:\n" + "\n".join(listed)
    stale = sorted(set(KEPT_NAMES) - set(unreached))
    assert not stale, "reached now: drop from KEPT_NAMES:\n" + "\n".join(stale)


# -- every option is set -----------------------------------------------------

#: the options no call outside the tests sets, and why each stays: (a) a
#: test seam that substitutes a fake, (b) a fault-injection input the
#: fault suites set on FaultInjector, (c) the mpi4py / SENSEI call shape
#: a mirrored API keeps
KEPT_OPTIONS = {
    "cli.py::main(argv)": "(a) a test seam: a command line in place of "
    "sys.argv",
    "bench/report.py::main(argv)": "(a) a test seam: a command line in place "
    "of sys.argv",
    "fleet/coordinator.py::FleetCoordinator(clock)": "(a) a test seam: a "
    "fake clock that makes lease expiry deterministic",
    "serve/mesh.py::ServeMesh(clock)": "(a) a test seam: a fake clock for "
    "the max_fps gate",
    "perf/gate.py::run_gate(kernels)": "(a) a test seam: fake kernels in "
    "place of the gated rows",
    "sensei/configurable.py::ConfigurableAnalysis(extra_factories)": "(a) a "
    "test seam: fake analyses behind XML type names",
    "parallel/runtime.py::dump_thread_stacks(file)": "(a) a test seam: a "
    "fake stream in place of stderr",
    "util/logging.py::get_logger(stream)": "(a) a test seam: a fake stream "
    "in place of stderr",
    "faults/injector.py::FaultInjector(delays)": "(b) the injected stall "
    "lengths the fault suites set",
    "sensei/data_adaptor.py::DataAdaptor.get_mesh(structure_only)": "(c) "
    "SENSEI's DataAdaptor::GetMesh(meshName, structureOnly, mesh)",
    "insitu/adaptor.py::NekDataAdaptor.get_mesh(structure_only)": "(c) "
    "SENSEI's DataAdaptor::GetMesh(meshName, structureOnly, mesh)",
    "insitu/streamed.py::StreamedDataAdaptor.get_mesh(structure_only)": "(c) "
    "SENSEI's DataAdaptor::GetMesh(meshName, structureOnly, mesh)",
    "parallel/comm.py::Communicator.gather(root)": "(c) mpi4py's "
    "comm.gather(sendobj, root=0)",
    "parallel/comm.py::Communicator.scatter(root)": "(c) mpi4py's "
    "comm.scatter(sendobj, root=0)",
    "parallel/comm.py::Communicator.reduce(op)": "(c) mpi4py's "
    "comm.reduce(sendobj, op=SUM, root=0)",
    "parallel/comm.py::Communicator.reduce(root)": "(c) mpi4py's "
    "comm.reduce(sendobj, op=SUM, root=0)",
    "parallel/thread_comm.py::ThreadCommunicator.sendrecv(tag)": "(c) "
    "mpi4py's comm.sendrecv(sendobj, dest, sendtag=0, ...)",
}

_REASONS = ("(a) ", "(b) ", "(c) ")


def _is_dataclass(node) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass":
            return True
    return False


def _decorated(node, name) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in node.decorator_list)


def _parameters(node, method):
    """``(positional names, named, defaulted)`` of a def, without the
    ``self`` / ``cls`` a method binds; ``*`` and ``**`` stand for its
    catch-alls, which are options too."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    defaulted += ["*"] * bool(args.vararg) + ["**"] * bool(args.kwarg)
    if method and not _decorated(node, "staticmethod"):
        positional = positional[1:]
    return positional, set(positional) | {a.arg for a in args.kwonlyargs}, defaulted


def _field_options(node):
    """The defaulted init fields of a dataclass body."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and item.value is not None):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords)):
            continue
        yield item.target.id, item


def _sets(call, positional, named, keys):
    """The option keys one call sets on one callee."""
    if any(k.arg is None for k in call.keywords):
        return set(keys.values())
    names = {k.arg if k.arg in named else "**" for k in call.keywords}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            names.update([*positional[i:], "*"])
            break
        names.add(positional[i] if i < len(positional) else "*")
    return {keys[n] for n in names if n in keys}


def _options():
    """``(options, set_by)``: every option key under ``src/repro`` with
    the span of its own body, and the ``(path, line)`` of each call that
    sets it."""
    src = _sources()
    options = {}     # key -> (path, first line, last line)
    top = {}         # (module, name) -> (positional, named, {name: key})
    methods = {}     # method name -> [(positional, named, {name: key})]
    declared = {}    # (module, class) -> {name: key}
    fields = {}      # (module, class) -> {field name: key}

    def add(keys, name, key, path, lo, hi):
        keys[name] = key
        options[key] = (path, lo, hi)

    for path, module in src.modules.items():
        rel = path.relative_to(SRC).as_posix()
        for qualname, node, owner in _defs(src.trees[path]):
            if node.name.startswith("_") or isinstance(node, ast.ClassDef):
                continue
            positional, named, defaulted = _parameters(node, owner is not None)
            keys = {}
            for name in defaulted:
                add(keys, name, f"{rel}::{qualname}({name})", path,
                    _first_line(node), node.end_lineno)
            entry = (positional, named, keys)
            if owner is None:
                top[(module, qualname)] = entry
            else:
                methods.setdefault(node.name, []).append(entry)
        for node in src.trees[path].body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            own = declared.setdefault((module, node.name), {})
            if _is_dataclass(node):
                fields[(module, node.name)] = own_fields = {}
                for name, item in _field_options(node):
                    add(own_fields, name, f"{rel}::{node.name}({name})", path,
                        item.lineno, item.lineno)
                own.update(own_fields)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    positional, named, defaulted = _parameters(item, True)
                    for name in defaulted:
                        add(own, name, f"{rel}::{node.name}({name})", path,
                            _first_line(item), item.end_lineno)
                    methods.setdefault("__init__", []).append((positional, named, own))

    def constructor(module, name):
        cls = getattr(importlib.import_module(module), name, None)
        keys = {}
        for base in reversed(getattr(cls, "__mro__", ())):
            keys.update(declared.get((base.__module__, base.__qualname__), {}))
        try:
            params = list(inspect.signature(cls).parameters.values())
        except (TypeError, ValueError):
            return [], set(keys), keys
        positional = [p.name for p in params
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        named = {p.name for p in params
                 if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}
        return positional, named, keys

    def callees(path, own, call, cls_of):
        """The ``(positional, named, {name: key})`` a call may reach."""
        func = call.func
        targets = []
        if isinstance(func, ast.Name):
            kind = src.bound[path].get(func.id)
            if func.id == "cls" and cls_of is not None:
                targets = [(own, cls_of)]
            elif kind and kind[0] == "name":
                targets = list(src.resolve(*kind[1]))
            elif own is not None:
                targets = [(own, func.id)]
        elif isinstance(func, ast.Attribute):
            targets = src.attribute_target(path, func)
            if not targets:
                return methods.get(func.attr, [])
        return [top[t] if t in top else constructor(*t)
                for t in targets if t in top or t in declared]

    def field_keys(pool, name):
        """The field options of the dataclasses in `pool` a ``name=``
        sets (every one for a ``**``)."""
        return {key for own in pool for field_name, key in own.items()
                if name in (None, field_name)}

    overridable = [fields[(src.modules[path], node.name)]
                   for path in src.modules for node in src.trees[path].body
                   if isinstance(node, ast.ClassDef)
                   and (src.modules[path], node.name) in fields
                   and any(getattr(item, "name", None) == "with_overrides"
                           for item in node.body)]

    set_by = {}      # key -> [(path, line)]
    for path, tree in src.trees.items():
        own = src.modules.get(path)
        enclosing, classmethods = {}, {}
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            enclosing.update({id(n): cls.name for n in ast.walk(cls)})
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and _decorated(item, "classmethod"):
                    classmethods.update({id(n): cls.name for n in ast.walk(item)})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            hit = set()
            for callee in callees(path, own, node, classmethods.get(id(node))):
                hit |= _sets(node, *callee)
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "with_overrides":
                pool = overridable
            elif name == "replace" and node.args:
                on_self = getattr(node.args[0], "id", None) == "self"
                pool = ([fields.get((own, enclosing.get(id(node))), {})] if on_self
                        else list(fields.values()))
            else:
                pool = []
            for keyword in node.keywords:
                hit |= field_keys(pool, keyword.arg)
            if name == "partial" and node.args:
                inner = ast.Call(func=node.args[0], args=node.args[1:],
                                 keywords=node.keywords)
                for callee in callees(path, own, inner, None):
                    hit |= _sets(inner, *callee)
            for key in hit:
                set_by.setdefault(key, []).append((path, node.lineno))
    return options, set_by


def test_every_option_is_set_outside_tests():
    """Source scan beside the name pass, over the same sources: an
    *option* -- a defaulted parameter (or a ``*`` / ``**`` catch-all) of
    a public function, method or constructor, or a defaulted init field
    of a public dataclass under ``src/repro`` -- stays only if a call
    outside its own body and outside the tests sets it.  A call sets an
    option by keyword, by position, through ``*`` or ``**`` unpacking (a
    ``**`` sets every option of what it calls), as ``cls(...)`` inside a
    classmethod, or through ``dataclasses.replace`` / ``with_overrides``.

    Calls resolve as names do in the name pass: a top-level function or
    class by module (a class through its signature, so a subclass call
    sets what its bases declare), a method by attribute name.  An option
    no caller sets is a default no input reaches: inline it as a
    constant.  Mutable state a dataclass keeps is ``field(init=False)``."""
    options, set_by = _options()

    def outside(key):
        path, lo, hi = options[key]
        return any(p != path or not lo <= line <= hi for p, line in set_by.get(key, ()))

    unset = {key for key in options if not outside(key)}
    listed = sorted(unset - set(KEPT_OPTIONS))
    assert not listed, (f"{len(listed)} of {len(options)} options set only by "
                        "tests:\n" + "\n".join(listed))
    stale = sorted(set(KEPT_OPTIONS) - unset)
    assert not stale, "set now: drop from KEPT_OPTIONS:\n" + "\n".join(stale)
    assert [k for k, why in KEPT_OPTIONS.items() if not why.startswith(_REASONS)] == []
