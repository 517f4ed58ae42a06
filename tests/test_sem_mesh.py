"""Tests for BoxMesh: coordinates, numbering, boundaries, partitioning."""

import numpy as np
import pytest

from repro.sem.mesh import BoundaryTag, BoxExtent, BoxMesh


class TestConstruction:
    def test_counts(self):
        mesh = BoxMesh((2, 3, 4), order=3)
        assert mesh.num_global_elements == 24
        assert mesh.num_elements == 24
        assert mesh.nq == 4
        assert mesh.field_shape() == (24, 4, 4, 4)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            BoxMesh((0, 1, 1))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            BoxMesh((2, 2, 2), order=0)

    def test_degenerate_extent(self):
        with pytest.raises(ValueError):
            BoxExtent((0, 0, 0), (1, 0, 1))

    def test_periodic_single_element_raises(self):
        with pytest.raises(ValueError):
            BoxMesh((1, 2, 2), periodic=(True, False, False))


class TestCoordinates:
    def test_corner_coordinates(self):
        mesh = BoxMesh((2, 2, 2), ((0, 0, 0), (2.0, 4.0, 6.0)), order=2)
        assert mesh.x.min() == 0.0 and mesh.x.max() == 2.0
        assert mesh.y.min() == 0.0 and mesh.y.max() == 4.0
        assert mesh.z.min() == 0.0 and mesh.z.max() == 6.0

    def test_axis_convention(self):
        """x varies along the last field axis, z along the first."""
        mesh = BoxMesh((1, 1, 1), order=3)
        assert np.all(np.diff(mesh.x[0, 0, 0, :]) > 0)
        assert np.all(np.diff(mesh.y[0, 0, :, 0]) > 0)
        assert np.all(np.diff(mesh.z[0, :, 0, 0]) > 0)
        assert np.allclose(mesh.x[0, :, :, 0], mesh.x[0, 0, 0, 0])

    def test_gll_spacing_nonuniform(self):
        mesh = BoxMesh((1, 1, 1), order=4)
        dx = np.diff(mesh.x[0, 0, 0, :])
        assert dx[0] < dx[len(dx) // 2]

    def test_elements_tile_without_gaps(self):
        mesh = BoxMesh((3, 1, 1), ((0, 0, 0), (3, 1, 1)), order=2)
        # right edge of element e == left edge of element e+1
        assert mesh.x[0, 0, 0, -1] == pytest.approx(mesh.x[1, 0, 0, 0])
        assert mesh.x[1, 0, 0, -1] == pytest.approx(mesh.x[2, 0, 0, 0])


class TestGlobalNumbering:
    def test_interface_nodes_share_ids(self):
        mesh = BoxMesh((2, 1, 1), order=2)
        # face i = last of element 0 == face i = first of element 1
        np.testing.assert_array_equal(
            mesh.global_ids[0, :, :, -1], mesh.global_ids[1, :, :, 0]
        )

    def test_num_global_nodes(self):
        mesh = BoxMesh((2, 2, 2), order=2)
        assert mesh.num_global_nodes == 5**3

    def test_ids_in_range_and_cover(self):
        mesh = BoxMesh((2, 2, 1), order=3)
        ids = mesh.global_ids
        assert ids.min() == 0
        assert len(np.unique(ids)) == mesh.num_global_nodes

    def test_periodic_wrap(self):
        mesh = BoxMesh((2, 2, 2), order=2, periodic=(True, False, False))
        # with periodicity in x, xmax face of last element = xmin of first
        np.testing.assert_array_equal(
            mesh.global_ids[1, :, :, -1], mesh.global_ids[0, :, :, 0]
        )

    def test_periodic_node_count(self):
        full = BoxMesh((2, 2, 2), order=2)
        per = BoxMesh((2, 2, 2), order=2, periodic=(True, True, True))
        assert per.num_global_nodes == 4**3
        assert full.num_global_nodes == 5**3

    def test_ids_consistent_with_coordinates(self):
        """Nodes sharing an id must share physical coordinates."""
        mesh = BoxMesh((2, 2, 2), order=3)
        ids = mesh.global_ids.ravel()
        coords = np.stack([mesh.x.ravel(), mesh.y.ravel(), mesh.z.ravel()], axis=1)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        sorted_coords = coords[order]
        same = sorted_ids[1:] == sorted_ids[:-1]
        np.testing.assert_allclose(
            sorted_coords[1:][same], sorted_coords[:-1][same], atol=1e-12
        )


class TestBoundaries:
    def test_face_node_counts(self):
        mesh = BoxMesh((2, 2, 2), order=3)
        nq = mesh.nq
        for tag in BoundaryTag:
            mask = mesh.boundary_nodes(tag)
            # 4 elements on each face, nq^2 nodes each
            assert mask.sum() == 4 * nq * nq

    def test_boundary_nodes_lie_on_face(self):
        mesh = BoxMesh((2, 3, 2), ((0, 0, 0), (1, 1, 1)), order=2)
        np.testing.assert_allclose(mesh.x[mesh.boundary_nodes(BoundaryTag.XMIN)], 0.0)
        np.testing.assert_allclose(mesh.x[mesh.boundary_nodes(BoundaryTag.XMAX)], 1.0)
        np.testing.assert_allclose(mesh.z[mesh.boundary_nodes(BoundaryTag.ZMAX)], 1.0)

    def test_periodic_direction_has_no_boundary(self):
        mesh = BoxMesh((2, 2, 2), order=2, periodic=(True, False, False))
        assert mesh.boundary_nodes(BoundaryTag.XMIN).sum() == 0
        assert mesh.boundary_nodes(BoundaryTag.YMIN).sum() > 0

    def test_union(self):
        mesh = BoxMesh((2, 2, 2), order=2)
        union = mesh.boundary_union([BoundaryTag.XMIN, BoundaryTag.XMAX])
        both = mesh.boundary_nodes(BoundaryTag.XMIN) | mesh.boundary_nodes(
            BoundaryTag.XMAX
        )
        np.testing.assert_array_equal(union, both)

    def test_all_faces_cover_shell(self):
        mesh = BoxMesh((2, 2, 2), order=3)
        shell = mesh.boundary_union(list(BoundaryTag))
        x, y, z = mesh.coords()
        on_shell = (
            np.isclose(x, 0) | np.isclose(x, 1)
            | np.isclose(y, 0) | np.isclose(y, 1)
            | np.isclose(z, 0) | np.isclose(z, 1)
        )
        np.testing.assert_array_equal(shell, on_shell)


class TestPartitioning:
    def test_slabs_tile_elements(self):
        all_ids = []
        for rank in range(3):
            mesh = BoxMesh((2, 2, 2), order=2, rank=rank, size=3)
            all_ids.extend(mesh.elem_ids.tolist())
        assert sorted(all_ids) == list(range(8))

    def test_local_coordinates_match_global_mesh(self):
        full = BoxMesh((2, 2, 2), order=2)
        part = BoxMesh((2, 2, 2), order=2, rank=1, size=2)
        lo = part.elem_ids[0]
        np.testing.assert_allclose(part.x[0], full.x[lo])
        np.testing.assert_allclose(part.global_ids[0], full.global_ids[lo])
