"""Shared fixtures for the test suite, plus a deadlock watchdog.

The fault-tolerance work injects stalls and crashes into the threaded
SPMD world; a regression there hangs rather than fails.  When
``pytest-timeout`` is installed it owns the per-test timeout; when it
is not (this container does not ship it), a ``faulthandler``-based
watchdog aborts the run with full thread tracebacks once a single test
exceeds its budget — failing fast instead of wedging tier-1.
Override per test with ``@pytest.mark.timeout(seconds)``.
"""

from __future__ import annotations

import faulthandler
import sys
import threading

import numpy as np
import pytest

from repro.parallel import SerialCommunicator
from repro.parallel.runtime import dump_thread_stacks

#: generous default so only genuine deadlocks trip it
_DEFAULT_TEST_TIMEOUT = 300.0


def pytest_addoption(parser):
    parser.addoption(
        "--record-goldens", action="store_true", default=False,
        help="rewrite the entries of tests/golden_intransit_outputs.json from "
             "this tree's output instead of comparing against them",
    )


@pytest.fixture
def record_goldens(request) -> bool:
    return request.config.getoption("--record-goldens")


def pytest_collection_modifyitems(config, items):
    # every test in the device-render module carries the `device`
    # marker, so `-m device` selects the whole residency suite even if
    # a new test class forgets the module-level pytestmark
    for item in items:
        if "test_device_render" in str(item.fspath):
            item.add_marker(pytest.mark.device)
        # same deal for the serving-hub suite: `-m mesh` selects every
        # test in the module, and the deadlock watchdog above covers the
        # threaded pump like any other test
        if "test_serve_mesh" in str(item.fspath):
            item.add_marker(pytest.mark.mesh)
    # a wall-clock verdict does not belong in the default run: a
    # `perf`-marked test runs only when the -m expression asks for it
    timed = [item for item in items if item.get_closest_marker("perf")]
    if timed and "perf" not in config.getoption("markexpr"):
        items[:] = [item for item in items if not item.get_closest_marker("perf")]
        config.hook.pytest_deselected(items=timed)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if item.config.pluginmanager.hasplugin("timeout"):
        yield  # pytest-timeout is installed and handles the marker
        return
    marker = item.get_closest_marker("timeout")
    seconds = _DEFAULT_TEST_TIMEOUT
    if marker is not None and marker.args:
        seconds = float(marker.args[0])

    # two-stage watchdog: at the budget, dump every thread's stack
    # (named spmd-rank-N threads make the stuck collective obvious);
    # shortly after, faulthandler hard-aborts the wedged run
    def _on_timeout():
        sys.stderr.write(
            f"\n[watchdog] test {item.nodeid!r} exceeded {seconds:g}s; "
            "dumping all thread stacks before abort\n"
        )
        dump_thread_stacks(sys.stderr)

    stack_timer = threading.Timer(seconds, _on_timeout)
    stack_timer.daemon = True
    stack_timer.start()
    faulthandler.dump_traceback_later(seconds + 5.0, exit=True)
    try:
        yield
    finally:
        stack_timer.cancel()
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _serve_event_loop_guard():
    """No asyncio serving loop may outlive its test.

    The HTTP frame server runs its event loop on a daemon thread; a
    test that forgets to stop one would leak the loop (and its
    executor threads) into every later test.  Only consults the
    transport module when a test actually imported it, so the guard is
    free for the rest of the suite.
    """
    yield
    if "repro.serve.transport" in sys.modules:
        from repro.serve import transport

        leaked = transport.shutdown_all()
        assert not leaked, f"serving event loops leaked by test: {leaked}"


@pytest.fixture
def cold_start(monkeypatch):
    """Call it to make every linear solve of the stepper drop its
    initial guess and start from x = 0, where ``||r0|| = ||b||``: the
    warm-against-cold test seam, not an option."""
    def install():
        from repro.nekrs import solver

        real_cg = solver.cg_solve
        monkeypatch.setattr(solver, "cg_solve",
                            lambda *args, x0=None, **kw: real_cg(*args, **kw))
    return install


@pytest.fixture
def comm():
    """A single-rank communicator."""
    return SerialCommunicator()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tiny_cavity_case():
    """The smallest meaningful solver case (fast enough for unit tests)."""
    from repro.nekrs.cases import lid_cavity_case

    return lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3, num_steps=3)


@pytest.fixture
def tiny_solver(tiny_cavity_case, comm):
    from repro.nekrs import NekRSSolver

    return NekRSSolver(tiny_cavity_case, comm)
