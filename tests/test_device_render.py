"""Device-resident render path: parity, PCIe accounting, allocations.

The pipeline invariant under test (ISSUE 9, restated by ISSUE 23): with
``residency="device"`` the one render call graph runs on raw views of
device buffers with all scratch from ``Device.arena``, the only
per-step D2H is the composited tile on the writing rank, and every
rendered PNG is byte-identical to the host-resident path — optimized
and under ``naive_mode()`` alike.
"""

import pytest

from repro.bench.workloads import measurement_pebble_case
from repro.insitu import Bridge
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import weak_scaled_rbc_case
from repro.occa import Device
from repro.parallel import SerialCommunicator, run_spmd
from repro.perf.arena import get_arena
from repro.perf.config import naive_mode

pytestmark = [pytest.mark.device, pytest.mark.timeout(240)]

WIDTH = HEIGHT = 96
TILE_BYTES = WIDTH * HEIGHT * 3  # one composited RGB framebuffer

XML = f"""<sensei>
  <analysis type="catalyst" array="velocity_magnitude" isovalue="0.05"
            slice_axis="y" width="{WIDTH}" height="{HEIGHT}" frequency="1"
            compositing="{{comp}}" residency="{{res}}"/>
</sensei>"""


def _case(name: str, num_steps: int = 2):
    if name == "pebble":
        return measurement_pebble_case(
            num_pebbles=2, elements_per_unit=2, order=3, num_steps=num_steps
        )
    return weak_scaled_rbc_case(
        6, elements_per_rank=2, order=3, dt=1e-3
    ).with_overrides(num_steps=num_steps)


def _render(case, ranks, comp, res, outdir, naive=False):
    """One SPMD render run; returns ({png name: bytes}, per-rank d2h)."""

    def body(comm):
        def inner():
            device = Device("cuda-sim")
            solver = NekRSSolver(case, comm, device)
            bridge = Bridge(
                solver,
                config_xml=XML.format(comp=comp, res=res),
                output_dir=outdir,
            )
            solver.run(observer=bridge.observer)
            bridge.finalize()
            return device.transfers.d2h_bytes

        if naive:
            # perf.config is thread-local: enter the reference mode
            # inside each spawned rank, not around run_spmd
            with naive_mode():
                return inner()
        return inner()

    d2h = run_spmd(ranks, body)
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.png"))}, d2h


class TestGoldenParity:
    """Device vs host vs naive reference, PNG-byte-equal."""

    @pytest.mark.parametrize(
        "case_name,ranks,comp",
        [
            ("pebble", 1, "gather"),
            ("pebble", 4, "gather"),  # device-to-device scatter to the root
            ("pebble", 4, "sort_last"),
            ("rbc", 6, "sort_last"),
        ],
    )
    def test_device_matches_host_and_naive(self, tmp_path, case_name, ranks, comp):
        case = _case(case_name)
        host, host_d2h = _render(case, ranks, comp, "host", tmp_path / "host")
        dev, dev_d2h = _render(case, ranks, comp, "device", tmp_path / "dev")
        ref, _ = _render(case, ranks, comp, "host", tmp_path / "ref", naive=True)

        # both passes (contour + slice) at both steps
        assert len(host) == 4
        assert host.keys() == dev.keys() == ref.keys()
        for name in host:
            assert dev[name] == host[name], f"device != host: {name}"
            assert ref[name] == host[name], f"naive != host: {name}"

        # PCIe accounting: host residency pulls the full field set on
        # every rank; device residency pays exactly one composited tile
        # per written frame, on the writing rank only
        assert all(b > 0 for b in host_d2h)
        assert dev_d2h[0] == len(dev) * TILE_BYTES
        assert all(b == 0 for b in dev_d2h[1:])

    def test_device_kernels_keep_naive_twins(self, tmp_path):
        """residency='device' under naive_mode still renders, byte-equal."""
        case = _case("pebble")
        host, _ = _render(case, 1, "gather", "host", tmp_path / "host")
        devn, devn_d2h = _render(
            case, 1, "gather", "device", tmp_path / "devn", naive=True
        )
        assert host.keys() == devn.keys() and host
        for name in host:
            assert devn[name] == host[name]
        assert devn_d2h[0] == len(devn) * TILE_BYTES


class TestPcieObservability:
    def test_counters_and_d2h_span(self, tmp_path):
        from repro.observe.session import Telemetry, active
        from repro.observe.tracer import SpanEvent

        case = _case("pebble")
        tel = Telemetry.create()
        with active(tel):
            device = Device("cuda-sim")
            solver = NekRSSolver(case, SerialCommunicator(), device)
            bridge = Bridge(
                solver,
                config_xml=XML.format(comp="gather", res="device"),
                output_dir=tmp_path,
            )
            solver.run(observer=bridge.observer)
            bridge.finalize()

        d2h = tel.metrics.get("repro_pcie_d2h_bytes_total")
        assert d2h is not None
        assert d2h.value == device.transfers.d2h_bytes > 0

        spans = [
            e for e in tel.tracer.events
            if isinstance(e, SpanEvent) and e.name == "catalyst.d2h"
        ]
        assert len(spans) == 4  # one per written frame
        assert sum(s.args["nbytes"] for s in spans) == d2h.value

    def test_observe_top_shows_pcie_line(self):
        from repro.observe.live.export import _pcie_line, _pcie_payload

        class _FakeMetrics:
            def __init__(self, values):
                self._values = values

            def get(self, name):
                value = self._values.get(name)
                if value is None:
                    return None
                return type("C", (), {"value": value})()

        assert _pcie_payload(_FakeMetrics({})) is None
        line = _pcie_line(_pcie_payload(_FakeMetrics({
            "repro_pcie_h2d_bytes_total": 2048.0,
            "repro_pcie_d2h_bytes_total": 110592.0,
        })))
        assert "h2d" in line and "d2h" in line and "108" in line


class TestSteadyStateAllocations:
    # slice-only pipeline: the contour pass intentionally *adopts* its
    # framebuffer out of the pool every frame (it escapes to the PNG
    # writer), which is a per-frame allocation by design — the staging
    # path under test here must be allocation-free without it
    SLICE_XML = (
        f'<sensei><analysis type="catalyst" array="velocity_magnitude" '
        f'slice_axis="y" width="{WIDTH}" height="{HEIGHT}" frequency="1" '
        f'compositing="gather" residency="{{res}}"/></sensei>'
    )

    @pytest.mark.parametrize("res", ["host", "device"])
    def test_no_new_arena_misses_after_warmup(self, tmp_path, res):
        """Mirrors the CG no-allocation assertion: once the pools are
        warm, neither the device arena nor the host workspace arena
        sees a fresh allocation per in situ step — the gather staging
        reuses arena scratch instead of fresh arrays."""
        case = _case("pebble", num_steps=6)
        device = Device("cuda-sim")
        solver = NekRSSolver(case, SerialCommunicator(), device)
        bridge = Bridge(
            solver,
            config_xml=self.SLICE_XML.format(res=res),
            output_dir=tmp_path,
        )
        solver.run(2, observer=bridge.observer)  # warm the pools
        dev_misses = device.arena.misses
        host_misses = get_arena().misses
        scratch = bridge.adaptor.scratch_arena
        scratch_misses = scratch.misses
        solver.run(3, observer=bridge.observer)
        assert device.arena.misses == dev_misses
        assert get_arena().misses == host_misses
        # the adaptor's private host-mirror pool is warm too: D2H
        # staging recycles the same buffers instead of fresh arrays
        assert scratch.misses == scratch_misses
        assert scratch.outstanding == 0
        assert device.arena.outstanding == 0
        bridge.finalize()


class TestOnePoolPerResidency:
    @pytest.mark.parametrize("comp", ["gather", "sort_last"])
    def test_device_step_borrows_nothing_from_the_host_arena(self, tmp_path, comp):
        """Contour + slice on 4 ranks: a device-resident viz step takes
        every framebuffer, ghost volume, owner buffer and slice plane
        from ``Device.arena`` — in both topologies — and returns them."""

        def body(comm):
            device = Device("cuda-sim")
            solver = NekRSSolver(_case("pebble"), comm, device)
            bridge = Bridge(
                solver,
                config_xml=XML.format(comp=comp, res="device"),
                output_dir=tmp_path,
            )
            solver.run(1)
            # the spectral resampling is a solver-side SEM contraction
            # whose intermediates are the solver's own (host-arena)
            # scratch; it is cached for the step, so stage it first and
            # measure the render call graph alone
            bridge.adaptor.device_uniform_fragments(("velocity_magnitude",))

            def host_stats():
                stats = get_arena().stats()
                return [stats[k] for k in ("hits", "misses", "outstanding")]

            before = host_stats()
            bridge.update(solver.step_index, solver.time)
            after = host_stats()
            borrows = device.arena.hits + device.arena.misses
            bridge.finalize()
            return before == after, borrows, device.arena.outstanding

        for unchanged, device_borrows, outstanding in run_spmd(4, body):
            assert unchanged
            assert device_borrows > 0 and outstanding == 0


class TestResidencyValidation:
    def _pipeline(self):
        from repro.catalyst.pipeline import RenderPipeline, RenderSpec

        return RenderPipeline(
            specs=[RenderSpec(kind="slice", array="pressure", axis="y")],
            width=32, height=32, name="t",
        )

    def test_rejects_unknown_residency(self, comm):
        from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor

        with pytest.raises(ValueError, match="residency"):
            CatalystAnalysisAdaptor(
                comm, self._pipeline(), arrays=("pressure",), residency="gpu"
            )

    def test_device_requires_declarative_pipeline(self, comm):
        from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor

        with pytest.raises(ValueError, match="declarative RenderPipeline"):
            CatalystAnalysisAdaptor(
                comm, lambda image, step, time: [], arrays=("pressure",),
                residency="device",
            )

    def test_xml_pythonscript_rejects_device(self, comm, tmp_path):
        from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor

        attrs = {"pipeline": "pythonscript", "residency": "device",
                 "array": "pressure"}
        with pytest.raises(ValueError, match="builtin"):
            CatalystAnalysisAdaptor.from_xml_attributes(comm, attrs, tmp_path)

    def test_device_requires_device_capable_data(self, comm, tmp_path):
        from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor

        adaptor = CatalystAnalysisAdaptor(
            comm, self._pipeline(), arrays=("pressure",),
            output_dir=tmp_path, residency="device",
        )

        class HostOnlyData:
            def get_data_time_step(self):
                return 0

            def get_data_time(self):
                return 0.0

        with pytest.raises(TypeError, match="device-capable"):
            adaptor.execute(HostOnlyData())
