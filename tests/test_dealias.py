"""Tests for quadrature over-integration (dealiasing)."""

import math

import numpy as np
import pytest

from repro.nekrs import NekRSSolver
from repro.nekrs.config import CaseDefinition
from repro.parallel import SerialCommunicator
from repro.sem import BoxMesh, SEMOperators
from repro.sem.dealias import dealias_points, project_back, to_fine
from repro.sem.quadrature import gauss_nodes_weights


def dealiased_product(a, b, order, fine_count=None):
    """The L2 projection of a*b onto P_N: the product on the fine Gauss
    grid, projected back (what ``convect_dealiased`` does per term)."""
    m = fine_count or dealias_points(order)
    return project_back(to_fine(a, order, m) * to_fine(b, order, m), order, m)


class TestGaussQuadrature:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_weights_sum_to_two(self, n):
        _, w = gauss_nodes_weights(n)
        assert w.sum() == pytest.approx(2.0)

    def test_no_endpoints(self):
        x, _ = gauss_nodes_weights(5)
        assert x.min() > -1.0 and x.max() < 1.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_exact_to_2n_minus_1(self, n):
        x, w = gauss_nodes_weights(n)
        for deg in range(2 * n):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            assert w @ x**deg == pytest.approx(exact, abs=1e-13)


class TestProjection:
    def test_three_halves_rule(self):
        assert dealias_points(4) == 8   # ceil(3*5/2)
        assert dealias_points(7) == 12

    def test_roundtrip_identity_on_polynomials(self, rng):
        """project_back(to_fine(f)) == f for any P_N field."""
        order = 4
        f = rng.normal(size=(2, 5, 5, 5))
        out = project_back(to_fine(f, order), order)
        np.testing.assert_allclose(out, f, atol=1e-11)

    def test_product_exact_when_representable(self):
        """If a*b has degree <= N the dealiased product is exact."""
        order = 5
        mesh = BoxMesh((2, 2, 2), order=order)
        x, y, z = mesh.coords()
        a = x**2
        b = y * z          # product degree 4 <= 5
        out = dealiased_product(a, b, order)
        np.testing.assert_allclose(out, a * b, atol=1e-10)

    def test_product_is_l2_projection_not_interpolation(self):
        """For an over-degree product, dealiasing differs from the
        collocation product and is closer in L2 to the true product."""
        order = 3
        mesh = BoxMesh((1, 1, 1), ((0, 0, 0), (1, 1, 1)), order=order)
        ops = SEMOperators(mesh, SerialCommunicator())
        x, _, _ = mesh.coords()
        a = x**order
        b = x**order
        colloc = a * b                       # interpolates x^6 at nodes
        deal = dealiased_product(a, b, order)
        assert not np.allclose(deal, colloc)
        # compare L2 errors against the true product on a fine grid
        from repro.sem.dealias import to_fine as tf
        from repro.sem.quadrature import gauss_nodes_weights

        m = 10
        xf = tf(x, order, m)
        truth = xf ** (2 * order)
        _, w1 = gauss_nodes_weights(m)
        w3 = w1[None, :, None, None] * w1[None, None, :, None] * w1[None, None, None, :]
        err_deal = float((w3 * (tf(deal, order, m) - truth) ** 2).sum())
        err_colloc = float((w3 * (tf(colloc, order, m) - truth) ** 2).sum())
        assert err_deal < err_colloc


class TestConvectDealiased:
    def test_matches_collocation_for_resolved_fields(self):
        mesh = BoxMesh((2, 2, 2), order=5)
        ops = SEMOperators(mesh, SerialCommunicator())
        x, y, z = mesh.coords()
        f = x**2 + y          # grad degree 1; u degree 1 -> product deg 2
        u, v, w = y, x, np.zeros_like(x)
        np.testing.assert_allclose(
            ops.convect_dealiased(f, u, v, w),
            ops.convect(f, u, v, w),
            atol=1e-10,
        )

    def test_best_l2_approximation_of_discrete_product(self):
        """The dealiased result is the L2-optimal P_N representation of
        the discrete product u_N * df_N/dx; collocation (its
        interpolant) is strictly worse when the product aliases."""
        L = 2 * math.pi
        order = 5
        mesh = BoxMesh((2, 2, 2), ((0, 0, 0), (L, L, L)), order=order,
                       periodic=(True, True, True))
        ops = SEMOperators(mesh, SerialCommunicator())
        x, y, z = mesh.coords()
        u = np.sin(3 * x) * np.cos(2 * y)
        v = w = np.zeros_like(x)
        f = np.cos(4 * x)
        colloc = ops.convect(f, u, v, w)
        deal = ops.convect_dealiased(f, u, v, w)

        # the discrete product, exact on a fine Gauss grid (both
        # factors are P_N, so the pointwise fine-grid product is exact)
        m = 12
        fx, _, _ = ops.grad(f)
        target = to_fine(u, order, m) * to_fine(fx, order, m)
        _, w1 = gauss_nodes_weights(m)
        w3 = (
            w1[None, :, None, None]
            * w1[None, None, :, None]
            * w1[None, None, None, :]
        )
        err_deal = float((w3 * (to_fine(deal, order, m) - target) ** 2).sum())
        err_colloc = float((w3 * (to_fine(colloc, order, m) - target) ** 2).sum())
        assert err_deal < err_colloc

    def test_solver_runs_with_dealiasing(self):
        case = CaseDefinition(
            name="tgv-dealias",
            mesh_shape=(2, 2, 2),
            extent=((0, 0, 0), (2 * math.pi,) * 3),
            order=5,
            periodic=(True, True, True),
            viscosity=0.05,
            dt=0.02,
            num_steps=5,
            dealias=True,
            initial_velocity=lambda x, y, z: (
                np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y), np.zeros_like(x),
            ),
        )
        solver = NekRSSolver(case, SerialCommunicator())
        reports = solver.run(5)
        assert all(np.isfinite(r.divergence_norm) for r in reports)
        # physics still right: decay rate close to analytic
        ke0 = 0.25 * (2 * math.pi) ** 3  # KE of TGV at t=0 on this box
        expected = ke0 * math.exp(-4 * case.viscosity * solver.time)
        assert solver.kinetic_energy() == pytest.approx(expected, rel=5e-3)

    def test_dealiased_solver_matches_collocation_when_resolved(self):
        """On a well-resolved field both advection schemes give nearly
        the same trajectory."""
        kwargs = dict(
            name="x",
            mesh_shape=(2, 2, 2),
            extent=((0, 0, 0), (2 * math.pi,) * 3),
            order=7,
            periodic=(True, True, True),
            viscosity=0.05,
            dt=0.02,
            num_steps=3,
            initial_velocity=lambda x, y, z: (
                np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y), np.zeros_like(x),
            ),
        )
        plain = NekRSSolver(CaseDefinition(**kwargs), SerialCommunicator())
        deal = NekRSSolver(
            CaseDefinition(**{**kwargs, "dealias": True}), SerialCommunicator()
        )
        plain.run(3)
        deal.run(3)
        rel = plain.ops.norm(plain.u - deal.u) / plain.ops.norm(plain.u)
        # the two advection schemes differ only by residual aliasing in
        # the (well-resolved) nonlinear term
        assert rel < 1e-4
