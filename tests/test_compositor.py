"""Sort-last compositor: parity, ghost exchange, and end-to-end identity.

The contract under test: for opaque surfaces, the distributed render
path — local rasterization + depth compositing — produces output
*pixel-identical* to gathering the volume and rendering at the root,
while moving ~one framebuffer instead of the whole volume to rank 0.
"""

import numpy as np
import pytest

from repro.catalyst.compositor import (
    composite,
    exchange_ghost_layers,
    gather_composite,
    render_composited,
    _fragment_offsets,
)
from repro.catalyst.pipeline import RenderPipeline, RenderSpec
from repro.parallel import run_spmd
from repro.parallel.comm import TrafficMeter
from repro.perf import naive_mode
from repro.perf.arena import get_arena

H, W = 12, 16


def _rank_framebuffer(rank, seed=0, rows=H):
    """Deterministic per-rank framebuffer with background (inf) holes."""
    rng = np.random.default_rng(1000 * (seed + 1) + rank)
    color = rng.integers(0, 255, size=(rows, W, 3), dtype=np.uint8)
    depth = rng.uniform(1.0, 9.0, size=(rows, W)).astype(np.float32)
    depth[rng.random((rows, W)) < 0.3] = np.inf  # not covered by this rank
    return color, depth


#: ``(case, size)`` rows of the parity check.  The case ids are the
#: scheme names these rows carried while ``composite`` took a
#: ``method=``; each now names what its rows vary around the one
#: direct-send compositor:
#:
#: - ``direct_send``: the algorithm on 12-row framebuffers, so the row
#:   strips are ragged at 5, 7, 8 and 9 ranks;
#: - ``binary_swap``: the power-of-two groups binary swap served, on
#:   16-row framebuffers so every strip is an even H/N;
#: - ``auto``: whichever path ``composite`` picks — passthrough at one
#:   rank, direct send, or the gather reference under ``naive_mode()``
#:   — run in both modes.
PARITY_CASES = (
    [("direct_send", n) for n in range(1, 10)]
    + [("binary_swap", n) for n in (1, 2, 4, 8)]
    + [("auto", n) for n in range(1, 10)]
)


class TestCompositeParity:
    @pytest.mark.parametrize("case,size", PARITY_CASES)
    def test_matches_gather_reference(self, case, size):
        rows = 16 if case == "binary_swap" else H

        def body(comm):
            color, depth = _rank_framebuffer(comm.rank, rows=rows)
            ref = gather_composite(comm, color.copy(), depth.copy())
            outs = [composite(comm, color.copy(), depth.copy())]
            if case == "auto":
                with naive_mode():
                    outs.append(composite(comm, color.copy(), depth.copy()))
            return ref, outs

        for rank, (ref, outs) in enumerate(run_spmd(size, body)):
            for out in outs:
                if rank == 0:
                    np.testing.assert_array_equal(out[0], ref[0])
                    np.testing.assert_array_equal(out[1], ref[1])
                else:
                    assert out is None and ref is None

    @pytest.mark.parametrize("size", [4, 6])
    def test_equal_depth_ties_break_by_rank(self, size):
        """Exact depth ties pick the lowest rank — same as the gather
        reference's first-wins merge, so composition order is moot."""

        def body(comm):
            color = np.full((H, W, 3), 10 * (comm.rank + 1), dtype=np.uint8)
            depth = np.full((H, W), 2.5, dtype=np.float32)
            ref = gather_composite(comm, color.copy(), depth.copy())
            out = composite(comm, color.copy(), depth.copy())
            return ref, out

        ref, out = run_spmd(size, body)[0]
        np.testing.assert_array_equal(out[0], np.full((H, W, 3), 10, np.uint8))
        np.testing.assert_array_equal(out[0], ref[0])

    def test_naive_mode_routes_through_gather(self):
        """Under naive_mode composite must route through the gather
        reference (the direct-send collectives assume uniform flags)."""

        def body(comm):
            with naive_mode():
                color, depth = _rank_framebuffer(comm.rank)
                ref = gather_composite(comm, color.copy(), depth.copy())
                out = composite(comm, color.copy(), depth.copy())
            return ref, out

        ref, out = run_spmd(4, body)[0]
        np.testing.assert_array_equal(out[0], ref[0])

    def test_arena_balanced_after_composite(self):
        def body(comm):
            color, depth = _rank_framebuffer(comm.rank)
            composite(comm, color, depth)
            return get_arena().outstanding

        assert run_spmd(4, body) == [0, 0, 0, 0]


class TestCompositingChoice:
    """A catalyst analysis chooses where to render, not an algorithm."""

    XML_ATTRS = {"array": "pressure", "isovalue": "0.1"}

    @pytest.mark.parametrize("scheme", ["binary_swap", "direct_send", "auto"])
    def test_xml_rejects_an_algorithm_name(self, comm, tmp_path, scheme):
        from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor

        attrs = dict(self.XML_ATTRS, compositing=scheme)
        with pytest.raises(ValueError, match=r"gather\|sort_last"):
            CatalystAnalysisAdaptor.from_xml_attributes(comm, attrs, tmp_path)

    @pytest.mark.parametrize("mode", ["gather", "sort_last"])
    def test_xml_accepts_where_to_render(self, comm, tmp_path, mode):
        from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor

        attrs = dict(self.XML_ATTRS, compositing=mode)
        adaptor = CatalystAnalysisAdaptor.from_xml_attributes(comm, attrs, tmp_path)
        assert adaptor.compositing == mode

    def test_xml_pythonscript_rejects_sort_last(self, comm, tmp_path):
        from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor

        script = tmp_path / "script.py"
        script.write_text("def render(image, step, time):\n    return []\n")
        attrs = {"pipeline": "pythonscript", "filename": str(script),
                 "compositing": "sort_last"}
        with pytest.raises(ValueError, match="builtin"):
            CatalystAnalysisAdaptor.from_xml_attributes(comm, attrs, tmp_path)


class TestGhostExchange:
    def _global_field(self, nx, ny, nz):
        z, y, x = np.meshgrid(
            np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
        )
        return np.sin(x * 0.7) + np.cos(y * 1.3) * z  # [z, y, x]

    def _tile(self, field, fx, fy, fz, nranks):
        """Tile the [z, y, x] field into (fx, fy, fz) fragments,
        dealt round-robin over ranks; returns per-rank fragment lists."""
        nz, ny, nx = field.shape
        per_rank = [[] for _ in range(nranks)]
        i = 0
        for oz in range(0, nz, fz):
            for oy in range(0, ny, fy):
                for ox in range(0, nx, fx):
                    frag = (
                        (float(ox), float(oy), float(oz)),
                        (fx, fy, fz),
                        {"v": field[oz:oz + fz, oy:oy + fy, ox:ox + fx].copy()},
                    )
                    per_rank[i % nranks].append(frag)
                    i += 1
        return per_rank

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_extended_volumes_match_global(self, nranks):
        field = self._global_field(4, 4, 4)
        per_rank = self._tile(field, 2, 2, 2, nranks)  # 8 fragments

        def body(comm):
            frags = per_rank[comm.rank]
            offsets = _fragment_offsets(frags, (0, 0, 0), (1, 1, 1))
            ext_frags, scratch = exchange_ghost_layers(comm, frags, offsets, ["v"])
            out = []
            for off, dims, ext_dims, vols in ext_frags:
                out.append((off, dims, ext_dims, vols["v"].copy()))
            get_arena().release(*scratch)
            assert get_arena().outstanding == 0
            return out

        for rank_result in run_spmd(nranks, body):
            for (ox, oy, oz), dims, (ex, ey, ez), ext in rank_result:
                # interior fragments grow by one ghost plane per axis,
                # boundary fragments stay put
                assert (ex, ey, ez) == tuple(
                    d + (1 if o + d < 4 else 0)
                    for d, o in zip(dims, (ox, oy, oz))
                )
                expected = field[oz:oz + ez, oy:oy + ey, ox:ox + ex]
                np.testing.assert_array_equal(ext, expected)

    def test_single_rank_identity(self):
        field = self._global_field(4, 4, 2)
        per_rank = self._tile(field, 2, 2, 2, 1)

        def body(comm):
            frags = per_rank[comm.rank]
            offsets = _fragment_offsets(frags, (0, 0, 0), (1, 1, 1))
            ext_frags, scratch = exchange_ghost_layers(comm, frags, offsets, ["v"])
            vols = [v["v"].copy() for _, _, _, v in ext_frags]
            get_arena().release(*scratch)
            return [(o, d, e) for o, d, e, _ in ext_frags], vols

        metas, vols = run_spmd(1, body)[0]
        for ((ox, oy, oz), dims, (ex, ey, ez)), ext in zip(metas, vols):
            np.testing.assert_array_equal(
                ext, field[oz:oz + ez, oy:oy + ey, ox:ox + ex]
            )


def _make_fragments(gdims, arrays, fx, fy, fz):
    """Synthetic smooth fields tiled into uniform fragments (all ranks
    see the same deterministic global data)."""
    nx, ny, nz = gdims
    z, y, x = np.meshgrid(
        np.arange(nz, dtype=float),
        np.arange(ny, dtype=float),
        np.arange(nx, dtype=float),
        indexing="ij",
    )
    cx, cy, cz = (nx - 1) / 2, (ny - 1) / 2, (nz - 1) / 2
    r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2)
    fields = {}
    for i, name in enumerate(arrays):
        fields[name] = np.cos(r * (0.4 + 0.1 * i)) + 0.05 * np.sin(x + y * (i + 1))
    frags = []
    for oz in range(0, nz, fz):
        for oy in range(0, ny, fy):
            for ox in range(0, nx, fx):
                payload = {
                    n: f[oz:oz + fz, oy:oy + fy, ox:ox + fx].copy()
                    for n, f in fields.items()
                }
                frags.append(((float(ox), float(oy), float(oz)), (fx, fy, fz), payload))
    return fields, frags


def _assemble(fields, gdims):
    from repro.vtkdata.arrays import DataArray
    from repro.vtkdata.dataset import ImageData

    image = ImageData(dims=gdims, origin=(0, 0, 0), spacing=(1, 1, 1))
    for name, f in fields.items():
        image.add_array(DataArray(name, f.ravel()))
    return image


PIPELINE = RenderPipeline(
    specs=[
        RenderSpec(kind="contour", array="q", isovalue=0.3, color_array="t"),
        RenderSpec(kind="slice", array="t", axis="y"),
    ],
    width=96,
    height=96,
    name="synth",
)


class TestRenderComposited:
    """Distributed pipeline == serial pipeline on the assembled volume."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 6, 8])
    def test_pixel_identical_to_serial(self, size):
        gdims = (12, 12, 12)
        fields, frags = _make_fragments(gdims, ["q", "t"], 6, 6, 6)
        reference = PIPELINE.render(_assemble(fields, gdims), step=3, time=0.25)

        def body(comm):
            mine = [f for i, f in enumerate(frags) if i % comm.size == comm.rank]
            return render_composited(
                comm, PIPELINE, mine, gdims, (0, 0, 0), (1, 1, 1),
                step=3, time=0.25,
            )

        results = run_spmd(size, body)
        assert all(r is None for r in results[1:])
        outputs = results[0]
        assert [n for n, _ in outputs] == [n for n, _ in reference]
        for (name, frame), (_, ref_frame) in zip(outputs, reference):
            np.testing.assert_array_equal(frame, ref_frame, err_msg=name)

    def test_threshold_specs_match_serial(self):
        gdims = (12, 12, 12)
        fields, frags = _make_fragments(gdims, ["q", "t"], 6, 6, 6)
        pipeline = RenderPipeline(
            specs=[
                RenderSpec(
                    kind="contour", array="q", isovalue=0.3, color_array="t",
                    threshold_array="t", threshold_min=-0.5, threshold_max=0.9,
                ),
                RenderSpec(kind="slice", array="q", axis="z",
                           threshold_array="t", threshold_min=0.0),
            ],
            width=80, height=64, name="thresh",
        )
        reference = pipeline.render(_assemble(fields, gdims), step=1, time=0.5)

        def body(comm):
            mine = [f for i, f in enumerate(frags) if i % comm.size == comm.rank]
            return render_composited(
                comm, pipeline, mine, gdims, (0, 0, 0), (1, 1, 1),
                step=1, time=0.5,
            )

        outputs = run_spmd(4, body)[0]
        for (name, frame), (_, ref_frame) in zip(outputs, reference):
            np.testing.assert_array_equal(frame, ref_frame, err_msg=name)

    def test_peak_rank_traffic_reduced_4x_vs_gather(self):
        """The acceptance bound: at 8 ranks the compositor's hottest
        rank moves <= 1/4 the bytes of the gather-to-root path."""
        size = 8
        gdims = (48, 48, 48)
        fields, frags = _make_fragments(gdims, ["q", "t"], 24, 24, 12)

        def gather_body(comm):
            mine = [f for i, f in enumerate(frags) if i % comm.size == comm.rank]
            gathered = comm.gather(mine)
            if gathered is None:
                return None
            return PIPELINE.render(_assemble(fields, gdims), step=0, time=0.0)

        def composite_body(comm):
            mine = [f for i, f in enumerate(frags) if i % comm.size == comm.rank]
            return render_composited(
                comm, PIPELINE, mine, gdims, (0, 0, 0), (1, 1, 1),
                step=0, time=0.0,
            )

        gather_meter, comp_meter = TrafficMeter(), TrafficMeter()
        run_spmd(size, gather_body, meter=gather_meter)
        run_spmd(size, composite_body, meter=comp_meter)
        gather_peak = gather_meter.peak_rank_bytes()
        comp_peak = comp_meter.peak_rank_bytes()
        assert comp_peak > 0
        assert gather_peak >= 4 * comp_peak, (
            f"peak ingress: gather {gather_peak} vs composited {comp_peak}"
        )


class TestEndToEndPipeline:
    """pb146-analog: the full Bridge with compositing vs gather."""

    XML = """
    <sensei>
      <analysis type="catalyst" mesh="uniform" array="velocity_magnitude"
                color_array="temperature" isovalue="0.35" slice_axis="y"
                width="96" height="96" frequency="2" compositing="{mode}"/>
    </sensei>
    """

    def _run(self, nranks, mode, outdir):
        from repro.insitu import Bridge
        from repro.nekrs import NekRSSolver
        from repro.nekrs.cases import pebble_bed_case

        outdir.mkdir(parents=True, exist_ok=True)

        def body(comm):
            case = pebble_bed_case(
                num_pebbles=6, elements_per_unit=2, order=3, dt=2e-3
            )
            solver = NekRSSolver(case, comm)
            bridge = Bridge(
                solver, config_xml=self.XML.format(mode=mode), output_dir=outdir
            )
            solver.run(2, observer=bridge.observer)
            bridge.finalize()

        run_spmd(nranks, body)
        return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.png"))}

    @pytest.mark.parametrize("nranks", [4, 6])
    def test_composited_pngs_identical_to_gather(self, nranks, tmp_path):
        ref = self._run(nranks, "gather", tmp_path / "gather")
        out = self._run(nranks, "sort_last", tmp_path / "sort_last")
        assert ref.keys() == out.keys()
        assert len(ref) == 2  # surface + slice at step 2
        for name in ref:
            assert out[name] == ref[name], f"{name} differs from gather reference"
