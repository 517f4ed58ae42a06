"""End-to-end codec accuracy: physics and pixels under the budget.

The error-budget satellite: a compressed in-transit RBC run must keep
the diagnostics the case is run *for* — the Nusselt number and the
rendered isosurfaces — within (a small multiple of) the codec budget,
and a lossless-routed run must produce frames byte-identical to an
uncompressed run, PNGs included.
"""

import numpy as np

from repro.codec import CodecContext, CodecSpec
from repro.insitu import InTransitRunner
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import weak_scaled_rbc_case
from repro.parallel import SerialCommunicator, run_spmd
from repro.util.png import decode_png


def _case_builder(steps=3):
    def build(nsim):
        c = weak_scaled_rbc_case(nsim, elements_per_rank=4, order=3, dt=1e-3)
        return c.with_overrides(num_steps=steps)

    return build


def _run(tmp, codec=None, route="intransit", steps=3, total=5, **kw):
    runner = InTransitRunner(
        _case_builder(steps),
        mode="catalyst",
        ratio=4,
        num_steps=steps,
        stream_interval=1,
        arrays=("temperature", "velocity_magnitude"),
        output_dir=tmp,
        image_size=64,
        codec=codec,
        route=route,
        **kw,
    )
    return runner, run_spmd(total, runner.run)


def _mean_wt(ops, w, T) -> float:
    """Volume-averaged vertical convective heat flux <wT>."""
    return ops.integrate(w * T) / ops.volume


class TestNusseltWithinBudget:
    def test_codec_roundtrip_preserves_nusselt(self):
        """<wT> from codec-decoded fields tracks the original within
        the propagated budget (|d<wT>| <= bound_w<|T|> + bound_T<|w|>)."""
        case = weak_scaled_rbc_case(2, elements_per_rank=4, order=4,
                                    dt=1e-3).with_overrides(num_steps=8)
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(8)
        w, T = solver.w, solver.T
        nu = _mean_wt(solver.ops, w, T)

        spec = CodecSpec.from_cli("delta-rle", "1e-3")
        ctx = CodecContext()
        from repro.adios.marshal import StepPayload, marshal_step, unmarshal_step

        payload = StepPayload(step=0, time=0.0, rank=0,
                              variables={"w": w, "T": T})
        out = unmarshal_step(marshal_step(payload, codec=spec, context=ctx),
                             context=CodecContext())
        wd, Td = out.variables["w"], out.variables["T"]
        bw = spec.config_for("w", w.dtype).budget.bound_for(w)
        bT = spec.config_for("T", T.dtype).budget.bound_for(T)
        assert np.abs(wd - w).max() <= bw + 1e-12
        assert np.abs(Td - T).max() <= bT + 1e-12
        nu_d = _mean_wt(solver.ops, wd, Td)
        tol = (bw * np.abs(Td).max() + bT * np.abs(w).max())
        assert abs(nu_d - nu) <= tol + 1e-12


class TestIntransitCodecRuns:
    def test_lossless_run_pngs_byte_identical(self, tmp_path):
        _, base = _run(tmp_path / "plain", codec=None)
        _, lossless = _run(tmp_path / "lossless", codec=CodecSpec.lossless())
        plain = sorted((tmp_path / "plain" / "catalyst").glob("*.png"))
        safe = sorted((tmp_path / "lossless" / "catalyst").glob("*.png"))
        assert len(plain) == len(safe) > 0
        for a, b in zip(plain, safe):
            assert a.name == b.name
            assert a.read_bytes() == b.read_bytes()

    def test_lossy_run_renders_within_budget(self, tmp_path):
        _, base = _run(tmp_path / "plain", codec=None)
        _, lossy = _run(tmp_path / "codec",
                        codec=CodecSpec.from_cli("delta-rle", "1e-3"))
        sims = [r for r in lossy if r.role == "simulation"]
        stats = sims[0].extra["codec"]
        assert stats["ratio"] > 1.5          # the wire actually shrank
        assert stats["wire_bytes"] < stats["raw_bytes"]
        plain = sorted((tmp_path / "plain" / "catalyst").glob("*.png"))
        comp = sorted((tmp_path / "codec" / "catalyst").glob("*.png"))
        assert len(plain) == len(comp) > 0
        for a, b in zip(plain, comp):
            pa = decode_png(a.read_bytes()).astype(float)
            pb = decode_png(b.read_bytes()).astype(float)
            assert pa.shape == pb.shape
            # a 1e-3-relative field budget moves isosurfaces by well
            # under a pixel: images agree except for a thin seam
            frac_diff = np.mean(np.abs(pa - pb).max(axis=-1) > 8)
            assert frac_diff < 0.02

    def test_hybrid_route_records_decisions(self, tmp_path):
        _, results = _run(tmp_path / "hyb", route="hybrid",
                          codec=CodecSpec.from_cli("delta-rle", "1e-3"))
        sims = [r for r in results if r.role == "simulation"]
        routes = sims[0].extra["routes"]
        assert sum(routes.values()) == 3     # one decision per step
        stats = sims[0].extra["router"]
        assert stats["mode"] == "hybrid"
        assert len(stats["decisions"]) == 3
        # every simulation rank made identical decisions (rank-uniform)
        assert all(r.extra["routes"] == routes for r in sims)
