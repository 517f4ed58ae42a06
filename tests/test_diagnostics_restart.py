"""Tests for derived diagnostics and full-state restart."""

import math

import numpy as np
import pytest

from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case, rayleigh_benard_case
from repro.nekrs.diagnostics import (
    q_criterion,
    vorticity,
    vorticity_magnitude,
)
from repro.nekrs.restart import (
    load_state_dict,
    read_restart,
    state_dict,
    write_restart,
)
from repro.parallel import SerialCommunicator, run_spmd
from repro.sem import BoxMesh, SEMOperators


@pytest.fixture
def ops():
    mesh = BoxMesh((2, 2, 2), ((0, 0, 0), (2 * math.pi,) * 3), order=6,
                   periodic=(True, True, True))
    return SEMOperators(mesh, SerialCommunicator())


class TestVorticity:
    def test_solid_body_rotation(self, ops):
        """u = (-y, x, 0) has vorticity (0, 0, 2)."""
        x, y, z = ops.mesh.coords()
        ox, oy, oz = vorticity(ops, -y, x, np.zeros_like(x))
        np.testing.assert_allclose(ox, 0.0, atol=1e-9)
        np.testing.assert_allclose(oy, 0.0, atol=1e-9)
        np.testing.assert_allclose(oz, 2.0, atol=1e-9)

    def test_irrotational_field(self, ops):
        """A gradient field (x, y, z) has zero curl."""
        x, y, z = ops.mesh.coords()
        ox, oy, oz = vorticity(ops, x, y, z)
        for comp in (ox, oy, oz):
            np.testing.assert_allclose(comp, 0.0, atol=1e-9)

    def test_magnitude_of_shear(self, ops):
        """u = (z, 0, 0): curl = (0, 1, 0), magnitude 1."""
        x, y, z = ops.mesh.coords()
        mag = vorticity_magnitude(ops, z, np.zeros_like(x), np.zeros_like(x))
        np.testing.assert_allclose(mag, 1.0, atol=1e-9)

    def test_continuized_single_valued(self, ops):
        x, y, z = ops.mesh.coords()
        u = np.sin(x) * np.cos(y)
        mag = vorticity_magnitude(ops, u, np.zeros_like(u), np.zeros_like(u))
        np.testing.assert_allclose(ops.continuize(mag), mag, atol=1e-12)


class TestQCriterion:
    def test_rotation_positive(self, ops):
        """Solid-body rotation is all rotation: Q > 0."""
        x, y, z = ops.mesh.coords()
        q = q_criterion(ops, -y, x, np.zeros_like(x))
        np.testing.assert_allclose(q, 1.0, atol=1e-9)  # Q = |Omega|^2/2 = 1

    def test_pure_strain_negative(self, ops):
        """Pure strain (x, -y, 0): Q < 0."""
        x, y, z = ops.mesh.coords()
        q = q_criterion(ops, x, -y, np.zeros_like(x))
        np.testing.assert_allclose(q, -1.0, atol=1e-9)

    def test_pure_shear_zero(self, ops):
        """Simple shear u=(y,0,0) splits evenly: Q = 0."""
        x, y, z = ops.mesh.coords()
        q = q_criterion(ops, y, np.zeros_like(x), np.zeros_like(x))
        np.testing.assert_allclose(q, 0.0, atol=1e-9)


class TestAdaptorDiagnostics:
    def test_vorticity_and_q_served(self, tiny_solver):
        from repro.insitu import NekDataAdaptor

        tiny_solver.run(2)
        adaptor = NekDataAdaptor(tiny_solver)
        md = adaptor.get_mesh_metadata(0)
        assert "vorticity_magnitude" in tuple(a.name for a in md.arrays)
        assert "q_criterion" in tuple(a.name for a in md.arrays)
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "vorticity_magnitude")
        adaptor.add_array(mesh, "mesh", "point", "q_criterion")
        block = mesh.get_block(0)
        assert block.point_data["vorticity_magnitude"].values.min() >= 0.0
        assert np.isfinite(block.point_data["q_criterion"].values).all()


class TestRestart:
    def _case(self, temperature=False):
        if temperature:
            return rayleigh_benard_case(
                rayleigh=1e4, aspect=(1, 1), elements_per_unit=2, order=3,
                dt=5e-3, num_steps=10,
            )
        return lid_cavity_case(elements=2, order=3, dt=5e-3, num_steps=10)

    @pytest.mark.parametrize("temperature", [False, True])
    def test_bitexact_continuation(self, tmp_path, temperature):
        """n+m direct steps == n steps -> restart -> m steps, bit for bit."""
        case = self._case(temperature)
        comm = SerialCommunicator()
        direct = NekRSSolver(case, comm)
        direct.run(5)

        first = NekRSSolver(case, SerialCommunicator())
        first.run(3)
        write_restart(tmp_path, first)

        resumed = NekRSSolver(case, SerialCommunicator())
        read_restart(tmp_path, resumed)
        assert resumed.step_index == 3
        resumed.run(2)

        np.testing.assert_array_equal(resumed.u, direct.u)
        np.testing.assert_array_equal(resumed.p, direct.p)
        if temperature:
            np.testing.assert_array_equal(resumed.T, direct.T)
        assert resumed.time == direct.time

    def test_state_dict_roundtrip(self, tiny_solver):
        tiny_solver.run(3)
        fields = state_dict(tiny_solver)
        fresh = NekRSSolver(tiny_solver.case, SerialCommunicator())
        load_state_dict(fresh, fields)
        np.testing.assert_array_equal(fresh.u, tiny_solver.u)
        assert len(fresh._hist_u) == len(tiny_solver._hist_u)

    def test_shape_mismatch_rejected(self, tiny_solver):
        tiny_solver.run(1)
        fields = state_dict(tiny_solver)
        other = NekRSSolver(
            lid_cavity_case(elements=3, order=3, dt=5e-3), SerialCommunicator()
        )
        with pytest.raises(ValueError, match="mismatch"):
            load_state_dict(other, fields)

    def test_missing_restart_raises(self, tmp_path, tiny_solver):
        with pytest.raises(FileNotFoundError):
            read_restart(tmp_path, tiny_solver)

    def test_rank_count_mismatch_rejected(self, tmp_path):
        case = self._case()

        def writer(comm):
            s = NekRSSolver(case, comm)
            s.run(1)
            write_restart(tmp_path, s)

        run_spmd(2, writer)
        single = NekRSSolver(case, SerialCommunicator())
        with pytest.raises(ValueError, match="ranks"):
            read_restart(tmp_path, single)

    def test_parallel_restart(self, tmp_path):
        case = self._case()

        def run_and_dump(comm):
            s = NekRSSolver(case, comm)
            s.run(2)
            write_restart(tmp_path, s)
            s.run(2)
            return s.kinetic_energy()

        def resume(comm):
            s = NekRSSolver(case, comm)
            read_restart(tmp_path, s)
            s.run(2)
            return s.kinetic_energy()

        expected = run_spmd(2, run_and_dump)[0]
        resumed = run_spmd(2, resume)[0]
        assert resumed == pytest.approx(expected, rel=1e-14)
