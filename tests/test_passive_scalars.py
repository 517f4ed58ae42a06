"""Tests for passive scalar transport."""

import math

import numpy as np
import pytest

from repro.insitu import NekDataAdaptor
from repro.nekrs import CaseDefinition, NekRSSolver, PassiveScalar, ScalarBC
from repro.nekrs.restart import read_restart, write_restart
from repro.parallel import SerialCommunicator
from repro.sem.mesh import BoundaryTag


def advection_case(num_scalars=1, dt=0.01, diffusivity=1e-8, **scalar_kw):
    """Uniform flow u=1 in a periodic box carrying passive blobs."""
    L = 1.0

    def blob(x, y, z):
        return np.exp(-80.0 * ((x - 0.3) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2))

    scalars = tuple(
        PassiveScalar(name=f"s{i:02d}", diffusivity=diffusivity, initial=blob,
                      **scalar_kw)
        for i in range(1, num_scalars + 1)
    )
    return CaseDefinition(
        name="advect",
        mesh_shape=(4, 2, 2),
        extent=((0, 0, 0), (L, L, L)),
        order=5,
        periodic=(True, True, True),
        viscosity=1e-6,
        dt=dt,
        num_steps=10,
        time_order=2,
        initial_velocity=lambda x, y, z: (
            np.ones_like(x), np.zeros_like(x), np.zeros_like(x),
        ),
        passive_scalars=scalars,
    )


class TestConfig:
    def test_negative_diffusivity(self):
        with pytest.raises(ValueError):
            PassiveScalar(name="s01", diffusivity=-1.0)

    def test_reserved_name(self):
        with pytest.raises(ValueError, match="collides"):
            PassiveScalar(name="pressure", diffusivity=1.0)

    def test_duplicate_names(self):
        s = PassiveScalar(name="dye", diffusivity=1.0)
        with pytest.raises(ValueError, match="duplicate"):
            advection_case().with_overrides(passive_scalars=(s, s))


class TestTransport:
    def test_blob_advects_downstream(self):
        case = advection_case(dt=0.01)
        solver = NekRSSolver(case, SerialCommunicator())
        s = solver.scalars["s01"]
        x = solver.mesh.x
        centroid0 = solver.ops.integrate(s * x) / solver.ops.integrate(s)
        solver.run(10)
        centroid1 = solver.ops.integrate(s * x) / solver.ops.integrate(s)
        # carried by u=1 for t=0.1: centroid moves ~0.1 downstream
        assert centroid1 - centroid0 == pytest.approx(0.1, abs=0.02)

    def test_mass_conserved_in_periodic_box(self):
        case = advection_case(dt=0.01)
        solver = NekRSSolver(case, SerialCommunicator())
        m0 = solver.ops.integrate(solver.scalars["s01"])
        solver.run(8)
        m1 = solver.ops.integrate(solver.scalars["s01"])
        assert m1 == pytest.approx(m0, rel=1e-3)

    def test_diffusion_decays_peak(self):
        fast = advection_case(diffusivity=5e-3, dt=0.01)
        slow = advection_case(diffusivity=1e-8, dt=0.01)
        peaks = {}
        for label, case in (("fast", fast), ("slow", slow)):
            solver = NekRSSolver(case, SerialCommunicator())
            solver.run(8)
            peaks[label] = solver.scalars["s01"].max()
        assert peaks["fast"] < peaks["slow"]

    def test_multiple_scalars_independent(self):
        case = advection_case(num_scalars=2)
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(3)
        np.testing.assert_allclose(
            solver.scalars["s01"], solver.scalars["s02"], atol=1e-12
        )

    def test_scalar_dirichlet_bc(self):
        """A scalar pinned to 1 at ZMIN holds that value."""
        case = CaseDefinition(
            name="bc",
            mesh_shape=(2, 2, 2),
            extent=((0, 0, 0), (1, 1, 1)),
            order=3,
            viscosity=1e-2,
            dt=5e-3,
            num_steps=3,
            passive_scalars=(
                PassiveScalar(
                    name="dye", diffusivity=1e-2,
                    bcs={BoundaryTag.ZMIN: ScalarBC(1.0)},
                ),
            ),
        )
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(3)
        bottom = solver.mesh.boundary_nodes(BoundaryTag.ZMIN)
        np.testing.assert_allclose(solver.scalars["dye"][bottom], 1.0, atol=1e-12)
        # diffusion pulls interior values up from zero
        assert solver.scalars["dye"].mean() > 0.0

    def test_step_reports_scalar_iterations(self):
        case = advection_case()
        solver = NekRSSolver(case, SerialCommunicator())
        report = solver.step()
        assert report.scalar_iterations > 0


class TestIntegration:
    def test_adaptor_serves_scalars(self):
        case = advection_case()
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(1)
        adaptor = NekDataAdaptor(solver)
        md = adaptor.get_mesh_metadata(0)
        assert "s01" in tuple(a.name for a in md.arrays)
        mesh = adaptor.get_mesh("mesh")
        adaptor.add_array(mesh, "mesh", "point", "s01")
        np.testing.assert_array_equal(
            mesh.get_block(0).point_data["s01"].values,
            solver.scalars["s01"].ravel(),
        )

    def test_restart_with_scalars_bitexact(self, tmp_path):
        case = advection_case()
        direct = NekRSSolver(case, SerialCommunicator())
        direct.run(5)

        first = NekRSSolver(case, SerialCommunicator())
        first.run(3)
        write_restart(tmp_path, first)
        resumed = NekRSSolver(case, SerialCommunicator())
        read_restart(tmp_path, resumed)
        resumed.run(2)
        np.testing.assert_array_equal(
            resumed.scalars["s01"], direct.scalars["s01"]
        )

    def test_memory_counts_scalars(self):
        with_s = NekRSSolver(advection_case(), SerialCommunicator())
        without = NekRSSolver(
            advection_case().with_overrides(passive_scalars=()),
            SerialCommunicator(),
        )
        assert with_s.memory_bytes() > without.memory_bytes()
