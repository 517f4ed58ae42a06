"""Tests for the stock SENSEI analyses against a live solver adaptor."""

import numpy as np
import pytest

from repro.insitu import NekDataAdaptor
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case
from repro.parallel import run_spmd
from repro.parallel.comm import ReduceOp
from repro.sensei.analyses import (
    HistogramAnalysis,
    VTKPosthocIO,
)


@pytest.fixture
def adaptor(tiny_solver):
    tiny_solver.run(2)
    a = NekDataAdaptor(tiny_solver)
    a.set_data_time_step(2)
    a.set_data_time(tiny_solver.time)
    return a


class TestHistogram:
    def test_counts_every_gridpoint(self, comm, adaptor, tiny_solver):
        h = HistogramAnalysis(comm, array_name="pressure", bins=8)
        assert h.execute(adaptor)
        result = h.results[-1]
        assert result.total == tiny_solver.local_gridpoints()
        assert len(result.edges) == 9

    def test_edges_cover_data(self, comm, adaptor, tiny_solver):
        h = HistogramAnalysis(comm, array_name="velocity_x", bins=4)
        h.execute(adaptor)
        r = h.results[-1]
        assert r.edges[0] <= tiny_solver.u.min()
        assert r.edges[-1] >= tiny_solver.u.max()

    def test_writes_file_on_root(self, comm, adaptor, tmp_path):
        h = HistogramAnalysis(comm, array_name="pressure", bins=4, output_dir=tmp_path)
        h.execute(adaptor)
        out = tmp_path / "histogram_pressure.txt"
        assert out.exists()
        assert "step 2" in out.read_text()

    def test_constant_field_degenerate_range(self, comm, adaptor, tiny_solver):
        tiny_solver.p[:] = 7.0
        h = HistogramAnalysis(comm, array_name="pressure", bins=4)
        adaptor.release_data()
        h.execute(adaptor)
        assert h.results[-1].total == tiny_solver.local_gridpoints()

    def test_parallel_matches_serial(self):
        def body(comm):
            case = lid_cavity_case(elements=2, order=3, dt=5e-3)
            s = NekRSSolver(case, comm)
            s.run(2)
            a = NekDataAdaptor(s)
            a.set_data_time_step(2)
            h = HistogramAnalysis(comm, array_name="pressure", bins=8)
            h.execute(a)
            return h.results[-1].counts

        serial = run_spmd(1, body)[0]
        par = run_spmd(2, body)[0]
        np.testing.assert_array_equal(serial, par)

    def test_invalid_bins(self, comm):
        with pytest.raises(ValueError):
            HistogramAnalysis(comm, bins=0)

    def test_unknown_array_raises(self, comm, adaptor):
        h = HistogramAnalysis(comm, array_name="vorticity_q")
        with pytest.raises(KeyError):
            h.execute(adaptor)


class TestVTKPosthocIO:
    def test_writes_vtu_and_vtm(self, comm, adaptor, tmp_path):
        io = VTKPosthocIO(comm, tmp_path, arrays=("pressure", "velocity_x"))
        assert io.execute(adaptor)
        vtus = list(tmp_path.glob("*.vtu"))
        vtms = list(tmp_path.glob("*.vtm"))
        assert len(vtus) == 1
        assert len(vtms) == 1
        assert io.files_written == 2
        assert io.bytes_written == sum(p.stat().st_size for p in vtus + vtms)

    def test_bytes_scale_with_arrays(self, comm, adaptor, tmp_path):
        one = VTKPosthocIO(comm, tmp_path / "a", arrays=("pressure",))
        four = VTKPosthocIO(
            comm, tmp_path / "b",
            arrays=("pressure", "velocity_x", "velocity_y", "velocity_z"),
        )
        one.execute(adaptor)
        four.execute(adaptor)
        assert four.bytes_written > one.bytes_written

    def test_multiple_dumps_accumulate(self, comm, adaptor, tmp_path):
        io = VTKPosthocIO(comm, tmp_path, arrays=("pressure",))
        io.execute(adaptor)
        adaptor.set_data_time_step(3)
        io.execute(adaptor)
        assert io.dumps == 2
        assert len(list(tmp_path.glob("*.vtu"))) == 2

    def test_parallel_one_file_per_rank(self, tmp_path):
        def body(comm):
            case = lid_cavity_case(elements=2, order=3, dt=5e-3)
            s = NekRSSolver(case, comm)
            s.run(1)
            a = NekDataAdaptor(s)
            a.set_data_time_step(1)
            io = VTKPosthocIO(comm, tmp_path, arrays=("pressure",))
            io.execute(a)
            return int(comm.allreduce(io.bytes_written, ReduceOp.SUM))

        totals = run_spmd(2, body)
        assert len(list(tmp_path.glob("*.vtu"))) == 2
        vtm = list(tmp_path.glob("*.vtm"))
        assert len(vtm) == 1
        assert b'index="1"' in vtm[0].read_bytes()
        assert totals[0] == totals[1] > 0
