"""Tests for the science case builders."""

import numpy as np
import pytest

from repro.nekrs.cases import (
    lid_cavity_case,
    pebble_bed_case,
    pebble_centers,
    rayleigh_benard_case,
    weak_scaled_rbc_case,
)
from repro.sem.mesh import BoundaryTag


class TestPebbleCenters:
    @pytest.mark.parametrize("n", [1, 5, 146])
    def test_count(self, n):
        centers, radius = pebble_centers(n)
        assert centers.shape == (n, 3)
        assert radius > 0

    def test_no_overlap(self):
        centers, radius = pebble_centers(146)
        from scipy.spatial.distance import pdist

        assert pdist(centers).min() >= 2 * radius - 1e-9

    def test_inside_duct(self):
        centers, radius = pebble_centers(50, duct_width=1.0)
        assert (centers[:, 0] - radius >= -1e-9).all()
        assert (centers[:, 0] + radius <= 1.0 + 1e-9).all()
        assert (centers[:, 1] - radius >= -1e-9).all()
        assert (centers[:, 1] + radius <= 1.0 + 1e-9).all()

    def test_deterministic(self):
        a, _ = pebble_centers(20)
        b, _ = pebble_centers(20)
        np.testing.assert_array_equal(a, b)

    def test_invalid(self):
        with pytest.raises(ValueError):
            pebble_centers(0)


class TestPebbleBedCase:
    def test_name_matches_pb146(self):
        assert pebble_bed_case(146, num_steps=1).name == "pb146"

    def test_duct_grows_with_pebbles(self):
        small = pebble_bed_case(2, num_steps=1)
        large = pebble_bed_case(20, num_steps=1)
        assert large.extent[1][2] > small.extent[1][2]
        assert large.mesh_shape[2] > small.mesh_shape[2]

    def test_has_inflow_outflow(self):
        case = pebble_bed_case(2, num_steps=1)
        assert BoundaryTag.ZMIN in case.velocity_bcs
        assert case.pressure_dirichlet == (BoundaryTag.ZMAX,)

    def test_brinkman_marks_pebbles(self):
        case = pebble_bed_case(2, elements_per_unit=3, order=3, num_steps=1)
        centers, radius = pebble_centers(2)
        x = np.array([centers[0, 0]])
        y = np.array([centers[0, 1]])
        z = np.array([centers[0, 2]])
        inside = case.brinkman(x, y, z)
        outside = case.brinkman(x, y, z + 10 * radius)
        assert inside[0] > 100 * max(outside[0], 1e-30)

    def test_heat_source_in_pebbles_only(self):
        case = pebble_bed_case(2, num_steps=1)
        centers, radius = pebble_centers(2)
        q_in = case.heat_source(
            np.array([centers[0, 0]]), np.array([centers[0, 1]]),
            np.array([centers[0, 2]]),
        )
        q_out = case.heat_source(np.array([0.0]), np.array([0.0]), np.array([0.0]))
        assert q_in[0] > 10 * max(q_out[0], 1e-30)

    def test_temperature_enabled(self):
        assert pebble_bed_case(2, num_steps=1).has_temperature


class TestRBCCase:
    def test_nondimensional_groups(self):
        case = rayleigh_benard_case(rayleigh=1e6, prandtl=0.7, num_steps=1)
        nu, kappa = case.viscosity, case.conductivity
        assert nu / kappa == pytest.approx(0.7)          # Pr = nu/kappa
        assert 1.0 / (nu * kappa) == pytest.approx(1e6)  # Ra = 1/(nu kappa)

    def test_periodic_sidewalls(self):
        case = rayleigh_benard_case(num_steps=1)
        assert case.periodic == (True, True, False)

    def test_plate_temperatures(self):
        case = rayleigh_benard_case(num_steps=1)
        zmin = case.temperature_bcs[BoundaryTag.ZMIN]
        zmax = case.temperature_bcs[BoundaryTag.ZMAX]
        x = np.zeros(1)
        assert zmin.evaluate(x, x, x, 0.0)[0] == 0.5
        assert zmax.evaluate(x, x, x, 0.0)[0] == -0.5

    def test_initial_temperature_satisfies_bcs(self):
        case = rayleigh_benard_case(num_steps=1)
        x = np.linspace(0, 2, 5)
        bottom = case.initial_temperature(x, x, np.zeros(5))
        top = case.initial_temperature(x, x, np.ones(5))
        np.testing.assert_allclose(bottom, 0.5, atol=1e-12)
        np.testing.assert_allclose(top, -0.5, atol=1e-12)

    def test_perturbation_deterministic_by_seed(self):
        a = rayleigh_benard_case(seed=1, num_steps=1)
        b = rayleigh_benard_case(seed=1, num_steps=1)
        c = rayleigh_benard_case(seed=2, num_steps=1)
        x = np.full(3, 0.3)
        z = np.full(3, 0.5)
        np.testing.assert_array_equal(
            a.initial_temperature(x, x, z), b.initial_temperature(x, x, z)
        )
        assert not np.array_equal(
            a.initial_temperature(x, x, z), c.initial_temperature(x, x, z)
        )

    def test_buoyancy_is_vertical(self):
        case = rayleigh_benard_case(num_steps=1)
        x = np.zeros(2)
        T = np.array([1.0, -1.0])
        fx, fy, fz = case.forcing(x, x, x, 0.0, T)
        np.testing.assert_array_equal(fx, 0.0)
        np.testing.assert_array_equal(fy, 0.0)
        np.testing.assert_array_equal(fz, T)

    def test_invalid_ra(self):
        with pytest.raises(ValueError):
            rayleigh_benard_case(rayleigh=-1)


class TestWeakScaledRBC:
    @pytest.mark.parametrize("ranks", [1, 4, 16])
    def test_elements_per_rank_roughly_constant(self, ranks):
        case = weak_scaled_rbc_case(ranks, elements_per_rank=8, num_steps=1)
        ex, ey, ez = case.mesh_shape
        per_rank = ex * ey * ez / ranks
        assert per_rank >= 8  # never less work than requested

    def test_grows_horizontally(self):
        small = weak_scaled_rbc_case(1, num_steps=1)
        big = weak_scaled_rbc_case(16, num_steps=1)
        assert big.mesh_shape[0] * big.mesh_shape[1] > small.mesh_shape[0] * small.mesh_shape[1]
        assert big.mesh_shape[2] == small.mesh_shape[2]  # height fixed

    def test_invalid(self):
        with pytest.raises(ValueError):
            weak_scaled_rbc_case(0)


class TestLidCavity:
    def test_lid_taper_vanishes_at_walls(self):
        case = lid_cavity_case(num_steps=1)
        lid = case.velocity_bcs[BoundaryTag.ZMAX]
        edge = np.array([0.0, 1.0])
        center = np.array([0.5])
        u_edge, _, _ = lid.evaluate(edge, edge, edge, 0.0)
        u_center, _, _ = lid.evaluate(center, center, center, 0.0)
        np.testing.assert_allclose(u_edge, 0.0, atol=1e-12)
        assert u_center[0] == pytest.approx(1.0)

    def test_viscosity_from_reynolds(self):
        assert lid_cavity_case(reynolds=250.0, num_steps=1).viscosity == pytest.approx(
            1.0 / 250.0
        )

    def test_invalid_reynolds(self):
        with pytest.raises(ValueError):
            lid_cavity_case(reynolds=0)
