"""Tests for NekDataAdaptor: meshes, arrays, device-boundary accounting."""

import numpy as np
import pytest

from repro.insitu import NekDataAdaptor
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case
from repro.occa import Device
from repro.parallel import run_spmd
from repro.vtkdata.dataset import ImageData, UnstructuredGrid


@pytest.fixture
def cuda_solver(comm):
    case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3)
    solver = NekRSSolver(case, comm, Device("cuda-sim"))
    solver.run(2)
    return solver


@pytest.fixture
def adaptor(cuda_solver):
    a = NekDataAdaptor(cuda_solver)
    a.set_data_time_step(2)
    a.set_data_time(cuda_solver.time)
    return a


class TestStructure:
    def test_two_meshes(self, adaptor):
        assert adaptor.get_number_of_meshes() == 2
        assert adaptor.get_mesh_metadata(0).name == "mesh"
        assert adaptor.get_mesh_metadata(1).name == "uniform"
        with pytest.raises(IndexError):
            adaptor.get_mesh_metadata(2)

    def test_mesh_metadata_counts(self, adaptor, cuda_solver):
        md = adaptor.get_mesh_metadata(0)
        assert md.num_points_local == cuda_solver.local_gridpoints()
        assert md.num_cells_local == 8 * 3**3  # E * order^3 sub-hexes
        assert "pressure" in tuple(a.name for a in md.arrays)
        assert "velocity_magnitude" in tuple(a.name for a in md.arrays)
        assert md.array("velocity").components == 3

    def test_uniform_metadata_extra(self, adaptor):
        md = adaptor.get_mesh_metadata(1)
        assert md.extra["global_dims"] == [8, 8, 8]  # 2 elems * 4 samples
        assert md.extra["samples"] == 4
        assert len(md.extra["origin"]) == 3

    def test_step_time_stamping(self, adaptor):
        assert adaptor.get_data_time_step() == 2
        assert adaptor.get_data_time() > 0

    def test_unknown_mesh_raises(self, adaptor):
        with pytest.raises(KeyError):
            adaptor.get_mesh("ghost")


class TestUnstructuredMesh:
    def test_block_layout(self, adaptor, comm):
        mesh = adaptor.get_mesh("mesh")
        assert mesh.num_blocks == comm.size
        block = mesh.get_block(comm.rank)
        assert isinstance(block, UnstructuredGrid)

    def test_points_match_solver_coords(self, adaptor, cuda_solver):
        block = adaptor.get_mesh("mesh").get_block(0)
        np.testing.assert_array_equal(block.points[:, 0], cuda_solver.mesh.x.ravel())

    def test_connectivity_within_bounds(self, adaptor):
        block = adaptor.get_mesh("mesh").get_block(0)
        assert block.cells.max() < block.num_points
        # sub-cells have positive volume: x of corner 1 > x of corner 0
        p0 = block.points[block.cells[:, 0]]
        p1 = block.points[block.cells[:, 1]]
        assert (p1[:, 0] > p0[:, 0]).all()

    def test_add_array_values(self, adaptor, cuda_solver):
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "pressure")
        block = mesh.get_block(0)
        np.testing.assert_array_equal(
            block.point_data["pressure"].values, cuda_solver.p.ravel()
        )

    def test_velocity_vector_array(self, adaptor):
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "velocity")
        vals = mesh.get_block(0).point_data["velocity"].values
        assert vals.shape[1] == 3

    def test_velocity_magnitude_derived(self, adaptor, cuda_solver):
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "velocity_magnitude")
        vals = mesh.get_block(0).point_data["velocity_magnitude"].values
        expected = np.sqrt(
            cuda_solver.u**2 + cuda_solver.v**2 + cuda_solver.w**2
        ).ravel()
        np.testing.assert_allclose(vals, expected)

    def test_unknown_array_lists_available(self, adaptor):
        mesh = adaptor.get_mesh("mesh")
        with pytest.raises(KeyError, match="pressure"):
            adaptor.add_array(mesh, "mesh", "point", "entropy")

    def test_cell_association_rejected(self, adaptor):
        mesh = adaptor.get_mesh("mesh")
        with pytest.raises(ValueError):
            adaptor.add_array(mesh, "mesh", "cell", "pressure")


class TestUniformMesh:
    def test_fragments_are_imagedata(self, adaptor, cuda_solver):
        mesh = adaptor.get_mesh("uniform")
        local = mesh.local_blocks()
        assert len(local) == cuda_solver.mesh.num_elements
        assert all(isinstance(b, ImageData) for b in local)

    def test_fragment_resampling_accuracy(self, adaptor, cuda_solver):
        """Resampled linear coordinate field is exact."""
        cuda_solver.p[:] = cuda_solver.mesh.x  # pressure := x
        adaptor.release_data()
        mesh = adaptor.get_mesh("uniform")
        adaptor.add_array(mesh, "uniform", "point", "pressure")
        for block in mesh.local_blocks():
            vol = block.as_volume("pressure")
            xs = block.origin[0] + np.arange(block.dims[0]) * block.spacing[0]
            np.testing.assert_allclose(vol[0, 0, :], xs, atol=1e-10)

    def test_vector_array_rejected_on_uniform(self, adaptor):
        mesh = adaptor.get_mesh("uniform")
        with pytest.raises(ValueError):
            adaptor.add_array(mesh, "uniform", "point", "velocity")


class TestDeviceBoundary:
    def test_one_d2h_copy_per_field_per_step(self, adaptor, cuda_solver):
        ledger = cuda_solver.device.transfers
        count, nbytes = ledger.d2h_count, ledger.d2h_bytes
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "pressure")
        adaptor.add_array(mesh, "mesh", "point", "pressure")  # cached
        uniform = adaptor.get_mesh("uniform")
        adaptor.add_array(uniform, "uniform", "point", "pressure")  # cached
        assert ledger.d2h_count - count == 1
        assert ledger.d2h_bytes - nbytes == cuda_solver.p.nbytes

    def test_release_data_invalidates_cache(self, adaptor, cuda_solver):
        ledger = cuda_solver.device.transfers
        count = ledger.d2h_count
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "pressure")
        adaptor.release_data()
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "pressure")
        assert ledger.d2h_count - count == 2

    def test_host_resident_solver_pays_no_device_copies(self, comm, cuda_solver):
        """Coupling a CPU solver crosses no device boundary: the
        contrast the paper draws with the GPU code.  The device only
        moves bytes; both integrate the same equations identically."""
        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=5e-3)
        solver = NekRSSolver(case, comm, Device("serial"))
        solver.run(2)
        adaptor = NekDataAdaptor(solver)
        for name in ("mesh", "uniform"):
            mesh = adaptor.get_mesh(name)
            adaptor.add_array(mesh, name, "point", "pressure")
        assert solver.device.transfers.total_bytes == 0
        np.testing.assert_array_equal(solver.u, cuda_solver.u)
        np.testing.assert_array_equal(solver.p, cuda_solver.p)

    def test_staging_accounting(self, adaptor):
        assert adaptor.staging_bytes_current == 0
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "pressure")
        assert adaptor.staging_bytes_current > 0
        peak = adaptor.staging_bytes_peak
        adaptor.release_data()
        assert adaptor.staging_bytes_current == 0
        assert adaptor.staging_bytes_peak == peak


class TestParallelAdaptor:
    def test_each_rank_owns_its_block(self):
        def body(comm):
            case = lid_cavity_case(elements=2, order=3, dt=5e-3)
            s = NekRSSolver(case, comm)
            s.run(1)
            a = NekDataAdaptor(s)
            mesh = a.get_mesh("mesh")
            mine = mesh.get_block(comm.rank)
            others = [
                i for i, b in enumerate(mesh.blocks)
                if b is not None and i != comm.rank
            ]
            return (mine is not None, others)

        for owned, others in run_spmd(2, body):
            assert owned
            assert others == []

    def test_uniform_blocks_partition_elements(self):
        def body(comm):
            case = lid_cavity_case(elements=2, order=3, dt=5e-3)
            s = NekRSSolver(case, comm)
            a = NekDataAdaptor(s)
            return a.get_mesh_metadata(1).local_block_ids

        results = run_spmd(2, body)
        combined = sorted(results[0] + results[1])
        assert combined == list(range(8))
