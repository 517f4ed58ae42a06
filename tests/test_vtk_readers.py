"""Round-trip tests for the VTK XML readers."""

import numpy as np
import pytest

from repro.vtkdata import (
    DataArray,
    UnstructuredGrid,
    VTKReadError,
    read_vtm,
    read_vtu,
    write_vtm,
    write_vtu,
)
from repro.vtkdata.arrays import CELL


def make_grid(rng, n_cells=4):
    points = rng.normal(size=(n_cells * 8, 3))
    cells = np.arange(n_cells * 8).reshape(n_cells, 8)
    g = UnstructuredGrid(points, cells)
    g.add_array(DataArray("pressure", rng.normal(size=n_cells * 8)))
    g.add_array(DataArray("velocity", rng.normal(size=(n_cells * 8, 3))))
    g.add_array(DataArray("owner", np.arange(n_cells), association=CELL))
    return g


class TestVtuRoundTrip:
    @pytest.mark.parametrize("encoding", ["ascii", "appended"])
    def test_full_roundtrip(self, tmp_path, rng, encoding):
        grid = make_grid(rng)
        path = tmp_path / "g.vtu"
        write_vtu(path, grid, encoding)
        out = read_vtu(path)
        atol = 1e-6 if encoding == "ascii" else 0.0
        np.testing.assert_allclose(out.points, grid.points, atol=atol)
        np.testing.assert_array_equal(out.cells, grid.cells)
        np.testing.assert_allclose(
            out.point_data["pressure"].values,
            grid.point_data["pressure"].values, atol=atol,
        )
        assert out.point_data["velocity"].values.shape[1] == 3
        np.testing.assert_array_equal(
            out.cell_data["owner"].values, grid.cell_data["owner"].values
        )

    def test_appended_exact(self, tmp_path, rng):
        grid = make_grid(rng)
        path = tmp_path / "g.vtu"
        write_vtu(path, grid, "appended")
        out = read_vtu(path)
        np.testing.assert_array_equal(out.points, grid.points)

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "set.vtm"
        write_vtm(path, ["a.vtu"])
        with pytest.raises(VTKReadError):
            read_vtu(path)


class TestVtmRoundTrip:
    def test_roundtrip_with_gaps(self, tmp_path):
        path = tmp_path / "mb.vtm"
        write_vtm(path, ["a.vtu", None, "c.vtu"])
        assert read_vtm(path) == ["a.vtu", None, "c.vtu"]


class TestEndpointOutputParses:
    def test_posthoc_io_files_load(self, tmp_path, comm, tiny_solver):
        """Everything VTKPosthocIO writes must parse back."""
        from repro.insitu import NekDataAdaptor
        from repro.sensei.analyses import VTKPosthocIO

        tiny_solver.run(1)
        adaptor = NekDataAdaptor(tiny_solver)
        adaptor.set_data_time_step(1)
        io = VTKPosthocIO(comm, tmp_path, arrays=("pressure", "velocity_x"))
        io.execute(adaptor)
        vtm = next(tmp_path.glob("*.vtm"))
        entries = read_vtm(vtm)
        loaded = [read_vtu(tmp_path / e) for e in entries if e]
        assert len(loaded) == 1
        grid = loaded[0]
        assert grid.num_points == tiny_solver.local_gridpoints()
        np.testing.assert_array_equal(
            grid.point_data["pressure"].values, tiny_solver.p.ravel()
        )
