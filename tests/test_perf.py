"""Unit tests for the ``repro.perf`` layer.

Covers the plan cache, the workspace arena (including its MemoryMeter
integration and telemetry gauges), the naive-mode switch, zero-copy
marshaling semantics, and the perf-gate plumbing — everything except
actual wall-clock comparisons, which live behind the ``perf`` marker
in ``benchmarks/test_bench_gate.py``.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.observe import Telemetry, active
from repro.occa import Device, DeviceMemory
from repro.perf import (
    PlanCache,
    WorkspaceArena,
    enabled,
    get_arena,
    get_plan_cache,
    naive_mode,
    set_enabled,
)


class TestConfig:
    def test_enabled_by_default(self):
        assert enabled()

    def test_naive_mode_restores(self):
        assert enabled()
        with naive_mode():
            assert not enabled()
            with naive_mode():
                assert not enabled()
            assert not enabled()
        assert enabled()

    def test_set_enabled(self):
        try:
            set_enabled(False)
            assert not enabled()
        finally:
            set_enabled(True)

    def test_flag_is_per_thread(self):
        seen = {}

        def body():
            seen["worker"] = enabled()

        with naive_mode():
            t = threading.Thread(target=body)
            t.start()
            t.join()
        assert seen["worker"] is True


class TestPlanCache:
    def test_get_builds_once(self):
        cache = PlanCache()
        calls = []
        for _ in range(3):
            plan = cache.get(("op", (2, 3)), lambda: calls.append(1) or "plan")
        assert plan == "plan"
        assert calls == [1]
        assert cache.misses == 1 and cache.hits == 2
        assert len(cache) == 1

    def test_einsum_matches_numpy(self):
        cache = PlanCache()
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(4, 7))
        expected = np.einsum("ij,kj->ik", a, b)
        got = cache.einsum("ij,kj->ik", a, b)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
        out = np.empty_like(expected)
        cache.einsum("ij,kj->ik", a, b, out=out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)
        assert cache.misses == 1 and cache.hits == 1

    def test_distinct_shapes_get_distinct_plans(self):
        cache = PlanCache()
        cache.einsum("ij,jk->ik", np.ones((2, 3)), np.ones((3, 4)))
        cache.einsum("ij,jk->ik", np.ones((5, 3)), np.ones((3, 4)))
        assert len(cache) == 2

    def test_clear(self):
        cache = PlanCache()
        cache.get("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_thread_local_instances(self):
        main = get_plan_cache()
        other = {}

        def body():
            other["cache"] = get_plan_cache()

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert other["cache"] is not main


def check_arena(arena, outstanding=0, **counters):
    """The pool's invariants, whatever it allocates."""
    stats = arena.stats()
    assert stats["outstanding"] == arena.outstanding == outstanding
    assert (stats["borrowed_bytes"] == 0) == (outstanding == 0)
    assert stats["peak_borrowed_bytes"] >= stats["borrowed_bytes"] >= 0
    assert stats["pooled_arrays"] == arena.pooled_arrays()
    assert stats["pooled_bytes"] == arena.pooled_bytes()
    for key, value in counters.items():
        assert stats[key] == value, key


class _ArenaContract:
    """What ``WorkspaceArena`` promises whatever its allocator returns;
    the subclasses supply the ``arena`` fixture (host / device)."""

    category: str

    def test_borrow_release_roundtrip(self, arena):
        a = arena.borrow((4, 5))
        assert a.shape == (4, 5) and a.dtype == np.float64
        check_arena(arena, outstanding=1, hits=0, misses=1)
        arena.release(a)
        check_arena(arena, hits=0, misses=1, pooled_arrays=1)
        b = arena.borrow((4, 5))
        assert b is a  # pooled buffer reused
        check_arena(arena, outstanding=1, hits=1, misses=1, pooled_arrays=0)
        arena.release(b)

    def test_distinct_shape_dtype_buckets(self, arena):
        a = arena.borrow((3,))
        b = arena.borrow((3,), np.float32)
        assert a.dtype != b.dtype
        arena.release(a, b)
        check_arena(arena, misses=2, pooled_arrays=2,
                    pooled_bytes=a.nbytes + b.nbytes)
        assert arena.borrow(3, np.float32) is b  # int shape, same bucket
        assert arena.borrow((3,)) is a

    def test_scratch_contextmanager(self, arena):
        with arena.scratch((2, 2)) as t:
            t.fill(0.0)
            check_arena(arena, outstanding=1)
        check_arena(arena)
        with arena.scratch((2, 2), n=3) as (x, y, z):
            assert len({id(x), id(y), id(z)}) == 3
            check_arena(arena, outstanding=3)
        check_arena(arena, pooled_arrays=3)

    def test_scratch_releases_on_exception(self, arena):
        with pytest.raises(RuntimeError):
            with arena.scratch((2, 2)):
                raise RuntimeError("boom")
        check_arena(arena, pooled_arrays=1)

    def test_peak_tracking(self, arena):
        a = arena.borrow((8,))
        b = arena.borrow((8,))
        peak = arena.peak_borrowed_bytes
        assert peak == a.nbytes + b.nbytes
        arena.release(a, b)
        arena.borrow((8,))
        assert arena.peak_borrowed_bytes == peak  # not reset by reuse

    def test_disabled_mode_is_plain_empty(self, arena):
        pooled = arena.borrow((4,))
        with naive_mode():
            a = arena.borrow((4,))
            assert type(a) is type(pooled) and a.shape == (4,)
            arena.release(a)
        check_arena(arena, outstanding=1, hits=0, misses=1, pooled_arrays=0)

    def test_memory_meter_charging(self, arena):
        tel = Telemetry.create(rank=0)
        with active(tel):
            a = arena.borrow((1024,))
            assert tel.memory.current(self.category) == a.nbytes
            arena.release(a)
            assert tel.memory.current(self.category) == 0
        assert tel.memory.peaks() == {self.category: a.nbytes}

    def test_clear(self, arena):
        arena.release(arena.borrow((4,)))
        arena.clear()
        check_arena(arena, hits=0, misses=0, pooled_arrays=0)


class TestArena(_ArenaContract):
    category = "perf.arena"

    @pytest.fixture
    def arena(self):
        return WorkspaceArena()

    def test_thread_local_instances(self):
        main = get_arena()
        other = {}

        def body():
            other["arena"] = get_arena()

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert other["arena"] is not main


class TestDeviceArena(_ArenaContract):
    """The same class, allocating ``DeviceMemory`` for ``Device.arena``."""

    category = "occa.arena"

    @pytest.fixture(params=["cuda-sim", "serial"])
    def device(self, request):
        return Device(request.param)

    @pytest.fixture
    def arena(self, device):
        return device.arena

    def test_pools_device_memory(self, device, arena):
        assert device.arena is arena  # built once per device
        mem = arena.borrow((3,))
        assert isinstance(mem, DeviceMemory) and mem.device is device

    def test_raw_view_borrows_from_the_device_pool(self, device, arena):
        view = device.raw_view()
        raw = view.borrow((4, 4), np.float32)
        assert type(raw) is np.ndarray
        assert raw.shape == (4, 4) and raw.dtype == np.float32
        check_arena(arena, outstanding=1, misses=1)
        view.release(raw)
        check_arena(arena, misses=1, pooled_arrays=1, pooled_bytes=raw.nbytes)
        mem = arena.borrow((4, 4), np.float32)  # same bucket
        assert mem._raw() is raw
        check_arena(arena, outstanding=1, hits=1, misses=1)
        with pytest.raises(KeyError):
            view.release(np.empty((4, 4), np.float32))  # never handed out
        with pytest.raises(KeyError):
            view.release(raw)  # already returned
        assert device.transfers.total_bytes == 0

    def test_raw_view_adopt_ends_accounting_without_pooling(self, device, arena):
        view = device.raw_view()
        frame = view.borrow((2, 2, 3), np.uint8)
        view.adopt(frame)  # escapes with the caller, like a finished frame
        check_arena(arena, misses=1, pooled_arrays=0)
        with pytest.raises(KeyError):
            view.release(frame)  # no longer the view's to return


class TestPerfGauges:
    @staticmethod
    def _solver():
        from repro.nekrs import NekRSSolver
        from repro.nekrs.cases import lid_cavity_case
        from repro.parallel import SerialCommunicator

        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3,
                               num_steps=1)
        return NekRSSolver(case, SerialCommunicator())

    def test_gauges_read_the_rank_arena(self):
        tel = Telemetry.create(rank=0)
        with active(tel):
            self._solver()
            arena, plans = get_arena(), get_plan_cache()
            # after the solver registered: the gauges read live values,
            # not a snapshot taken at a solver step
            arena.release(arena.borrow((16,)))
            plans.get(("perf-gauges-test",), lambda: 1)
        reg = tel.metrics
        assert reg.get("repro_perf_arena_misses").value == arena.misses >= 1
        assert reg.get("repro_perf_plan_cache_misses").value == plans.misses >= 1
        pooled = reg.get("repro_perf_arena_pooled_bytes").value
        assert pooled == arena.pooled_bytes() >= 16 * 8

    def test_noop_without_telemetry(self):
        self._solver()  # registers on the null registry without raising


class TestZeroCopyMarshal:
    def _payload(self):
        from repro.adios.marshal import StepPayload

        rng = np.random.default_rng(42)
        return StepPayload(
            step=7, time=0.25, rank=3,
            variables={
                "vel": rng.normal(size=(4, 3, 3, 3)),
                "ids": np.arange(12, dtype=np.int32).reshape(3, 4),
            },
            attributes={"case": "cavity"},
        )

    def test_bytes_identical_to_reference(self):
        """The RBP2 layout, pinned: the frame ``marshal_step_reference``
        (the BytesIO writer retired with PR 19) produced for this
        payload at 2bdf058."""
        import hashlib

        from repro.adios.marshal import marshal_step

        frame = bytes(marshal_step(self._payload()))
        assert len(frame) == 1050
        assert (hashlib.blake2b(frame, digest_size=16).hexdigest()
                == "e09e6fcd887a08571ce529a08615b637")

    def test_marshal_returns_bytearray(self):
        from repro.adios.marshal import marshal_step

        assert isinstance(marshal_step(self._payload()), bytearray)

    def test_unmarshal_views_are_read_only(self):
        from repro.adios.marshal import marshal_step, unmarshal_step

        out = unmarshal_step(marshal_step(self._payload()))
        arr = out.variables["vel"]
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0, 0] = 1.0

    def test_ensure_writable_copy_on_write(self):
        from repro.adios.marshal import marshal_step, unmarshal_step

        out = unmarshal_step(marshal_step(self._payload()))
        view = out.variables["vel"]
        writable = out.ensure_writable("vel")
        assert writable.flags.writeable and writable is not view
        assert out.variables["vel"] is writable
        np.testing.assert_array_equal(writable, view)
        # second call is a no-op (already private)
        assert out.ensure_writable("vel") is writable

    def test_roundtrip_values(self):
        from repro.adios.marshal import marshal_step, unmarshal_step

        payload = self._payload()
        out = unmarshal_step(marshal_step(payload))
        assert out.step == payload.step and out.rank == payload.rank
        assert out.attributes == payload.attributes
        for name, arr in payload.variables.items():
            np.testing.assert_array_equal(out.variables[name], arr)

    def test_naive_mode_roundtrip_matches(self):
        """The wire layer does not depend on the perf mode: same bytes,
        same container, same read-only contract under ``naive_mode()``."""
        from repro.adios.marshal import marshal_step, unmarshal_step

        payload = self._payload()
        fast = marshal_step(payload)
        with naive_mode():
            slow = marshal_step(payload)
            out = unmarshal_step(slow)
        assert isinstance(slow, bytearray) and slow == fast
        assert not out.variables["vel"].flags.writeable
        np.testing.assert_array_equal(out.variables["vel"],
                                      payload.variables["vel"])


def _bench(tmp_path, n, rows, schema="repro-bench-gate/2"):
    key = "ratio" if schema.endswith("/2") else "speedup"
    (tmp_path / f"BENCH_{n}.json").write_text(json.dumps({
        "schema": schema,
        "kernels": {name: {key: value} for name, value in rows.items()},
    }))


def _snapshot(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


class TestGate:
    """The verdict on synthetic numbers; wall-clock verdicts are ``perf``."""

    def test_compare_to_baseline_synthetic_regression(self, tmp_path):
        """The baseline is the best ratio over every schema-2 file: 15%
        below it fails, 5% below it passes."""
        from repro.perf.gate import compare_to_trajectory, load_trajectory

        _bench(tmp_path, 22, {"k": 2.0})
        _bench(tmp_path, 23, {"k": 4.0})   # best is neither newest...
        _bench(tmp_path, 24, {"k": 3.0})
        _bench(tmp_path, 100, {"k": 1.0})  # ...nor first by name
        trajectory = load_trajectory(tmp_path)
        assert [f for f, _ in trajectory] == [
            "BENCH_22.json", "BENCH_23.json", "BENCH_24.json", "BENCH_100.json"
        ]
        failures = compare_to_trajectory(trajectory, {"k": 4.0 * 0.85})
        assert len(failures) == 1 and failures[0].startswith("k:")
        assert "BENCH_23.json" in failures[0]
        assert compare_to_trajectory(trajectory, {"k": 4.0 * 0.95}) == []

    def test_schema_1_files_are_history_and_never_gate(self, tmp_path):
        from repro.perf.gate import GateReport, compare_to_trajectory, load_trajectory

        _bench(tmp_path, 9, {"k": 16.48}, schema="repro-bench-gate/1")
        _bench(tmp_path, 22, {"k": 10.0})
        trajectory = load_trajectory(tmp_path)
        assert compare_to_trajectory(trajectory, {"k": 9.5}) == []
        row = {"ratio": 9.5, "ratio_quartiles": [9.4, 9.6], "pairs": 5,
               "optimized_s": 1.0, "reference_s": 9.5}
        text = GateReport({"k": row}, trajectory, []).render()
        assert "16.48x" in text and "10.000x" in text

    def test_compare_ignores_unknown_kernels(self, tmp_path):
        """Rows the files have and the gate does not measure (retired
        since) do not gate; ``tests/test_benchmark_contract.py`` holds
        ``KERNELS`` equal to the newest file's rows."""
        from repro.perf.gate import compare_to_trajectory, load_trajectory

        _bench(tmp_path, 22, {"k": 2.0, "retired": 5.0})
        assert compare_to_trajectory(load_trajectory(tmp_path), {"k": 2.0}) == []

    def test_a_row_missing_from_every_file_is_named(self, tmp_path):
        from repro.perf.gate import compare_to_trajectory, load_trajectory

        _bench(tmp_path, 9, {"new_name": 3.0}, schema="repro-bench-gate/1")
        _bench(tmp_path, 22, {"k": 2.0, "old_name": 3.0})
        trajectory = load_trajectory(tmp_path)
        failures = compare_to_trajectory(trajectory, {"k": 2.0, "new_name": 3.0})
        assert [f.split(":")[0] for f in failures] == ["new_name"]
        # recording the next file is how a row is renamed
        assert compare_to_trajectory(
            trajectory, {"k": 2.0, "new_name": 3.0}, recording=True
        ) == []

    def test_missing_trajectory_is_an_error_and_creates_nothing(self, tmp_path):
        from repro.perf.gate import TrajectoryError, run_gate

        _bench(tmp_path, 10, {"noop": 1.0}, schema="repro-bench-gate/1")
        before = _snapshot(tmp_path)
        with pytest.raises(TrajectoryError, match="BENCH_<n>.json"):
            run_gate(tmp_path, kernels={"noop": lambda: (lambda: None)})
        assert _snapshot(tmp_path) == before

    def test_run_gate_writes_only_what_record_names(self, tmp_path):
        from repro.perf.gate import SCHEMA, run_gate

        kernels = {"noop": lambda: (lambda: 1.0)}
        record = tmp_path / "BENCH_1.json"
        report = run_gate(tmp_path, record=record, kernels=kernels)
        assert report.ok and "gate PASSED" in report.render()
        data = json.loads(record.read_text())
        assert data["schema"] == SCHEMA
        assert set(data["kernels"]["noop"]) == {
            "ratio", "ratio_quartiles", "pairs", "optimized_s", "reference_s"
        }
        assert data["kernels"]["noop"]["ratio"] == 1.0

        before = _snapshot(tmp_path)
        assert run_gate(tmp_path, kernels=kernels).ok
        assert _snapshot(tmp_path) == before

    def test_run_gate_fails_on_doctored_baseline(self, tmp_path):
        from repro.perf.gate import run_gate

        _bench(tmp_path, 22, {"same": 1e6})
        report = run_gate(tmp_path, kernels={"same": lambda: (lambda: 1.0)})
        assert not report.ok
        assert report.failures[0].startswith("same:")
        assert "FAIL" in report.render()

    def test_cli_gate_exit_codes(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            "repro.perf.gate.KERNELS", {"noop": lambda: (lambda: 1.0)}
        )
        assert cli.main(["bench", "--gate"]) == 2
        assert "BENCH_<n>.json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

        assert cli.main(["bench", "--record", "BENCH_1.json"]) == 0
        before = _snapshot(tmp_path)
        assert cli.main(["bench", "--gate"]) == 0
        assert _snapshot(tmp_path) == before

        _bench(tmp_path, 2, {"noop": 2.0})
        assert cli.main(["bench", "--gate"]) == 1

    def test_bench_requires_figure_or_gate(self):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main(["bench"])
