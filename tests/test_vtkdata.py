"""Tests for the VTK-like data model and XML writers."""

import numpy as np
import pytest

from repro.vtkdata import (
    DataArray,
    ImageData,
    MultiBlockDataSet,
    UnstructuredGrid,
    write_vtm,
    write_vtu,
)
from repro.vtkdata.arrays import CELL, POINT


def unit_hex_grid():
    points = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    cells = np.array([[0, 1, 2, 3, 4, 5, 6, 7]])
    return UnstructuredGrid(points, cells)


class TestDataArray:
    def test_scalar(self):
        a = DataArray("p", np.zeros(5))
        assert a.num_tuples == 5
        assert a.num_components == 1

    def test_vector(self):
        a = DataArray("vel", np.zeros((5, 3)))
        assert a.num_components == 3

    def test_bad_association(self):
        with pytest.raises(ValueError):
            DataArray("x", np.zeros(3), association="edge")

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            DataArray("x", np.zeros((2, 2, 2)))

    def test_range_scalar(self):
        a = DataArray("p", np.array([1.0, -2.0, 3.0]))
        assert a.range() == (-2.0, 3.0)

    def test_range_vector_uses_magnitude(self):
        a = DataArray("v", np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert a.range() == (1.0, 5.0)

    def test_range_empty(self):
        assert DataArray("p", np.zeros(0)).range() == (0.0, 0.0)


class TestUnstructuredGrid:
    def test_counts(self):
        g = unit_hex_grid()
        assert g.num_points == 8
        assert g.num_cells == 1

    def test_bad_points_shape(self):
        with pytest.raises(ValueError):
            UnstructuredGrid(np.zeros((3, 2)), np.zeros((1, 8), dtype=int))

    def test_bad_connectivity(self):
        points = np.zeros((4, 3))
        cells = np.array([[0, 1, 2, 3, 4, 5, 6, 7]])  # refs nonexistent points
        with pytest.raises(ValueError):
            UnstructuredGrid(points, cells)

    def test_add_point_array(self):
        g = unit_hex_grid()
        g.add_array(DataArray("p", np.arange(8.0)))
        assert "p" in g.point_data

    def test_add_cell_array(self):
        g = unit_hex_grid()
        g.add_array(DataArray("rank", np.zeros(1), association=CELL))
        assert "rank" in g.cell_data

    def test_wrong_tuple_count_raises(self):
        g = unit_hex_grid()
        with pytest.raises(ValueError):
            g.add_array(DataArray("p", np.zeros(5)))

    def test_bounds(self):
        b = unit_hex_grid().bounds()
        np.testing.assert_array_equal(b, [[0, 1], [0, 1], [0, 1]])

    def test_nbytes_counts_everything(self):
        g = unit_hex_grid()
        base = g.nbytes
        g.add_array(DataArray("p", np.zeros(8)))
        assert g.nbytes == base + 64


class TestImageData:
    def test_basic(self):
        img = ImageData((3, 4, 5), origin=(1, 2, 3), spacing=(0.1, 0.2, 0.3))
        assert img.num_points == 60
        assert img.num_cells == 2 * 3 * 4

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ImageData((0, 2, 2))

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            ImageData((2, 2, 2), spacing=(0, 1, 1))

    def test_as_volume_shape(self):
        img = ImageData((2, 3, 4))
        img.add_array(DataArray("p", np.arange(24.0)))
        vol = img.as_volume("p")
        assert vol.shape == (4, 3, 2)
        # x fastest in the flat layout
        assert vol[0, 0, 1] == 1.0
        assert vol[0, 1, 0] == 2.0
        assert vol[1, 0, 0] == 6.0

    def test_rejects_cell_arrays(self):
        img = ImageData((2, 2, 2))
        with pytest.raises(ValueError):
            img.add_array(DataArray("c", np.zeros(1), association=CELL))

    def test_wrong_size(self):
        img = ImageData((2, 2, 2))
        with pytest.raises(ValueError):
            img.add_array(DataArray("p", np.zeros(7)))


class TestMultiBlock:
    def test_set_and_get(self):
        mb = MultiBlockDataSet()
        mb.set_block(2, "grid")
        assert mb.num_blocks == 3
        assert mb.get_block(2) == "grid"
        assert mb.get_block(0) is None

    def test_local_blocks(self):
        mb = MultiBlockDataSet()
        mb.set_block(0, unit_hex_grid())
        mb.set_block(3, None)
        assert len(mb.local_blocks()) == 1

    def test_nbytes(self):
        mb = MultiBlockDataSet()
        mb.set_block(0, unit_hex_grid())
        assert mb.nbytes == unit_hex_grid().nbytes


class TestWriters:
    def _grid_with_data(self):
        g = unit_hex_grid()
        g.add_array(DataArray("pressure", np.arange(8.0)))
        g.add_array(DataArray("velocity", np.ones((8, 3))))
        g.add_array(DataArray("owner", np.array([2]), association=CELL))
        return g

    @pytest.mark.parametrize("encoding", ["ascii", "appended"])
    def test_vtu_structure(self, tmp_path, encoding):
        path = tmp_path / "g.vtu"
        nbytes = write_vtu(path, self._grid_with_data(), encoding)
        raw = path.read_bytes()
        assert len(raw) == nbytes
        assert b"<VTKFile" in raw
        assert b"UnstructuredGrid" in raw
        assert b'Name="pressure"' in raw
        assert b'NumberOfComponents="3"' in raw
        assert b"connectivity" in raw

    def test_vtu_ascii_contains_values(self, tmp_path):
        path = tmp_path / "g.vtu"
        write_vtu(path, self._grid_with_data(), "ascii")
        text = path.read_text()
        assert "0 1 2 3 4 5 6 7" in text  # connectivity / pressure values

    def test_vtu_appended_has_raw_marker(self, tmp_path):
        path = tmp_path / "g.vtu"
        write_vtu(path, self._grid_with_data(), "appended")
        assert b'<AppendedData encoding="raw">' in path.read_bytes()

    def test_vtu_appended_smaller_than_ascii_at_size(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 20
        # a 20^3-ish point cloud worth of hexes: one slab of cells
        points = rng.normal(size=(n * 8, 3))
        cells = np.arange(n * 8).reshape(n, 8)
        g = UnstructuredGrid(points, cells)
        g.add_array(DataArray("p", rng.normal(size=n * 8)))
        a = write_vtu(tmp_path / "a.vtu", g, "ascii")
        b = write_vtu(tmp_path / "b.vtu", g, "appended")
        # full-precision ascii of random doubles is bigger than raw
        # once payload dominates the XML envelope
        assert b < a

    def test_bad_encoding(self, tmp_path):
        with pytest.raises(ValueError):
            write_vtu(tmp_path / "x.vtu", unit_hex_grid(), "base91")

    def test_vtm(self, tmp_path):
        path = tmp_path / "set.vtm"
        n = write_vtm(path, ["b0.vtu", None, "b2.vtu"])
        raw = path.read_bytes()
        assert len(raw) == n
        assert b'index="0" file="b0.vtu"' in raw
        assert b'<DataSet index="1"/>' in raw
