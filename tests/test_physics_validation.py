"""Deeper physics validation: analytic solutions and convergence laws.

- Poiseuille channel: forced laminar flow between plates converges to
  the parabolic profile.
- Spectral (p-) convergence: Poisson error falls exponentially with
  polynomial order — the property SEM exists for.
- Heat equation: the slowest diffusion mode decays at its analytic
  rate.
- Taylor-Green vortex: the exact decaying Navier-Stokes solution in a
  fully periodic box (all-Neumann pressure) keeps its shape and loses
  kinetic energy at exp(-4 nu k^2 t), with a time error of the BDF/EXT
  order.
"""

import math

import numpy as np
import pytest

from repro.nekrs import CaseDefinition, NekRSSolver, ScalarBC, VelocityBC
from repro.nekrs.cases import pebble_bed_case, weak_scaled_rbc_case
from repro.parallel import SerialCommunicator, run_spmd
from repro.sem import BoundaryTag, BoxMesh, SEMOperators, cg_solve


class TestPoiseuille:
    def test_parabolic_profile(self):
        """dp/dx = -G between no-slip plates: u(z) = G z(1-z) / (2 nu)."""
        nu, G = 0.1, 1.0
        case = CaseDefinition(
            name="channel",
            mesh_shape=(2, 2, 3),
            extent=((0, 0, 0), (1, 1, 1)),
            order=5,
            periodic=(True, True, False),
            viscosity=nu,
            dt=0.05,
            num_steps=240,   # ~12 viscous time units: well into steady state
            time_order=2,
            velocity_bcs={
                BoundaryTag.ZMIN: VelocityBC(),
                BoundaryTag.ZMAX: VelocityBC(),
            },
            forcing=lambda x, y, z, t, T: (
                np.full_like(x, G), np.zeros_like(x), np.zeros_like(x),
            ),
        )
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(240)
        z = solver.mesh.z
        exact = G * z * (1.0 - z) / (2.0 * nu)
        err = solver.ops.norm(solver.u - exact) / solver.ops.norm(exact)
        assert err < 1e-3
        # transverse components stay at solver-tolerance level
        assert solver.ops.norm(solver.v) < 1e-6
        assert solver.ops.norm(solver.w) < 1e-6

    def test_flow_rate_grows_with_forcing(self):
        rates = {}
        for G in (0.5, 1.0):
            case = CaseDefinition(
                name="channel",
                mesh_shape=(2, 2, 2),
                extent=((0, 0, 0), (1, 1, 1)),
                order=4,
                periodic=(True, True, False),
                viscosity=0.1,
                dt=0.05,
                num_steps=40,
                velocity_bcs={
                    BoundaryTag.ZMIN: VelocityBC(),
                    BoundaryTag.ZMAX: VelocityBC(),
                },
                forcing=lambda x, y, z, t, T, G=G: (
                    np.full_like(x, G), np.zeros_like(x), np.zeros_like(x),
                ),
            )
            solver = NekRSSolver(case, SerialCommunicator())
            solver.run(40)
            rates[G] = solver.ops.integrate(solver.u)
        assert rates[1.0] == pytest.approx(2.0 * rates[0.5], rel=1e-3)


class TestSpectralConvergence:
    def _poisson_error(self, order: int) -> float:
        mesh = BoxMesh((2, 2, 2), order=order)
        ops = SEMOperators(mesh, SerialCommunicator())
        x, y, z = mesh.coords()
        ue = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
        mask = ~mesh.boundary_union(list(BoundaryTag))
        b = ops.assemble(ops.mass_apply(3 * np.pi**2 * ue)) * mask
        diag = ops.stiffness_diagonal()
        res = cg_solve(
            lambda u: ops.assemble(ops.stiffness_apply(u)) * mask,
            b, ops.dot,
            precond=np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1), 0) * mask,
            tol=1e-13, max_iterations=3000,
        )
        return ops.norm(res.x - ue * mask) / ops.norm(ue)

    def test_exponential_error_decay(self):
        errors = {order: self._poisson_error(order) for order in (2, 4, 6, 8)}
        # each +2 in order gains at least a factor ~10
        assert errors[4] < errors[2] / 10
        assert errors[6] < errors[4] / 10
        assert errors[8] < errors[6] / 5  # approaching CG tolerance floor
        assert errors[8] < 1e-7


class TestHeatEquation:
    def test_fundamental_mode_decay(self):
        """dT/dt = kappa lap T with T = sin(pi z): decays at kappa pi^2."""
        kappa = 0.05
        case = CaseDefinition(
            name="heat",
            mesh_shape=(2, 2, 2),
            extent=((0, 0, 0), (1, 1, 1)),
            order=6,
            periodic=(True, True, False),
            viscosity=1e-3,
            conductivity=kappa,
            dt=0.01,
            num_steps=40,
            time_order=2,
            temperature_bcs={
                BoundaryTag.ZMIN: ScalarBC(0.0),
                BoundaryTag.ZMAX: ScalarBC(0.0),
            },
            initial_temperature=lambda x, y, z: np.sin(np.pi * z),
        )
        solver = NekRSSolver(case, SerialCommunicator())
        solver.run(40)
        z = solver.mesh.z
        expected = np.sin(np.pi * z) * math.exp(-kappa * math.pi**2 * solver.time)
        err = solver.ops.norm(solver.T - expected) / solver.ops.norm(expected)
        assert err < 5e-3

    def test_insulated_box_conserves_heat(self):
        """No-flux walls: total thermal energy is invariant."""
        case = CaseDefinition(
            name="insulated",
            mesh_shape=(2, 2, 2),
            extent=((0, 0, 0), (1, 1, 1)),
            order=4,
            viscosity=1e-2,
            conductivity=1e-2,
            dt=0.01,
            num_steps=20,
            initial_temperature=lambda x, y, z: 1.0 + 0.5 * np.cos(np.pi * x),
        )
        solver = NekRSSolver(case, SerialCommunicator())
        q0 = solver.ops.integrate(solver.T)
        solver.run(20)
        assert solver.ops.integrate(solver.T) == pytest.approx(q0, rel=1e-6)


class TestTaylorGreenVortex:
    """u = sin(kx) cos(ky) e^(-2 nu k^2 t), v = -cos(kx) sin(ky) e^(-2 nu k^2 t),
    w = 0: advection is balanced by the pressure p = (cos 2kx + cos 2ky) / 4
    times e^(-4 nu k^2 t), so the kinetic energy decays at exp(-4 nu k^2 t).
    A triply periodic box has no Dirichlet face: the pressure solve runs
    on the singular all-Neumann system with its null-space projection."""

    NU, K, T = 0.1, 1.0, 1.0

    def _run(self, dt):
        k = self.K
        L = 2 * math.pi / k
        case = CaseDefinition(
            name="taylor-green",
            mesh_shape=(2, 2, 2),
            extent=((0, 0, 0), (L, L, L)),
            order=8,
            periodic=(True, True, True),
            viscosity=self.NU,
            dt=dt,
            num_steps=round(self.T / dt),
            time_order=2,
            initial_velocity=lambda x, y, z: (
                np.sin(k * x) * np.cos(k * y),
                -np.cos(k * x) * np.sin(k * y),
                np.zeros_like(x),
            ),
        )
        solver = NekRSSolver(case, SerialCommunicator())
        ke0 = solver.kinetic_energy()
        solver.run(case.num_steps)
        assert solver.time == pytest.approx(self.T)
        decay = math.exp(-2 * self.NU * k * k * solver.time)
        x, y = solver.mesh.x, solver.mesh.y
        u_exact = np.sin(k * x) * np.cos(k * y) * decay
        shape_err = solver.ops.norm(solver.u - u_exact) / solver.ops.norm(u_exact)
        ke_err = abs(solver.kinetic_energy() / (ke0 * decay * decay) - 1.0)
        return ke_err, shape_err

    def test_kinetic_energy_decays_at_the_viscous_rate(self):
        coarse, _ = self._run(dt=0.1)
        fine, shape_err = self._run(dt=0.05)
        # measured 5.5e-4 and 1.4e-4; with the viscous term removed the
        # energy does not decay (e^0.4 - 1 = 0.49), and at first order in
        # time the fine error is 2.0e-3
        assert fine < 2.5e-4
        assert shape_err < 1e-3
        # second order in time: halving dt divides the error by ~4
        # (4.03 measured; first order would give 2)
        assert coarse / fine > 3.5


# -- the two-level pressure preconditioner changes round-off, not physics -----

_SHAPES = {
    # the end-to-end benchmark's two solver shapes: (case, relative bound
    # on the kinetic energy at every step).  Both solve the pressure to
    # 1e-6.  The pebble flow is driven from step 1 and agrees to 7e-9;
    # the RBC cell starts at rest in near-hydrostatic balance, so its
    # first steps' velocity is the small difference of two large terms
    # and carries the solve tolerance itself (3e-7 at step 1, 1e-9 by
    # step 7).
    "pebble": (lambda: pebble_bed_case(
        num_pebbles=5, elements_per_unit=4, order=5, dt=1e-3, viscosity=5e-2,
    ), 1e-7),
    "rbc": (lambda: weak_scaled_rbc_case(
        1, elements_per_rank=32, order=5, dt=1e-3,
    ), 1e-6),
}


def _ke_and_divergence(comm, case, jacobi_only, steps):
    solver = NekRSSolver(case, comm)
    if jacobi_only:
        # test seam, not an option: the diagonal half of the preconditioner
        jacobi = solver._pressure_preconditioner().jacobi
        solver._pressure_preconditioner = lambda: jacobi
    series = []
    for _ in range(steps):
        report = solver.step()
        assert report.unconverged_solves == 0
        series.append((solver.kinetic_energy(), report.divergence_norm,
                       report.pressure_iterations,
                       report.velocity_iterations + report.scalar_iterations))
    return np.array(series)


@pytest.mark.parametrize("ranks", [1, 2])
@pytest.mark.parametrize("shape", _SHAPES)
def test_two_level_matches_jacobi(shape, ranks):
    """Same case stepped under Jacobi + coarse grid and under Jacobi
    alone: the kinetic-energy series agrees to solver tolerance at every
    step, the divergence is no worse, every rank sees the same numbers —
    and the coarse grid is what saves the iterations."""
    build, ke_rtol = _SHAPES[shape]
    runs = {
        jacobi_only: run_spmd(
            ranks, _ke_and_divergence, args=(build(), jacobi_only, 6)
        )
        for jacobi_only in (False, True)
    }
    for per_rank in runs.values():
        for other in per_rank[1:]:
            np.testing.assert_array_equal(other, per_rank[0])
    (ke, div, iters, _), (ke_j, div_j, iters_j, _) = runs[False][0].T, runs[True][0].T
    assert np.all(ke_j > 0)
    np.testing.assert_allclose(ke, ke_j, rtol=ke_rtol, atol=0)
    assert np.all(div <= (1 + 1e-6) * div_j)
    assert iters.sum() < iters_j.sum()


# -- warm starts change where each solve stops, not the physics ----------------

@pytest.mark.parametrize("ranks", [1, 2])
@pytest.mark.parametrize("shape", _SHAPES)
def test_warm_starts_match_cold_starts(shape, ranks, cold_start):
    """Same case stepped with every solve warm-started from the last
    step's field and with every solve started from zero: the
    kinetic-energy series agrees within the same bound at every step,
    the divergence is no worse, every rank sees the same numbers — and
    the warm starts are what save the iterations."""
    build, ke_rtol = _SHAPES[shape]
    warm = run_spmd(ranks, _ke_and_divergence, args=(build(), False, 12))
    cold_start()
    cold = run_spmd(ranks, _ke_and_divergence, args=(build(), False, 12))
    for per_rank in (warm, cold):
        for other in per_rank[1:]:
            np.testing.assert_array_equal(other, per_rank[0])
    (ke, div, p_iters, h_iters), (ke_c, div_c, p_iters_c, h_iters_c) = \
        warm[0].T, cold[0].T
    assert np.all(ke_c > 0)
    np.testing.assert_allclose(ke, ke_c, rtol=ke_rtol, atol=0)
    assert np.all(div <= (1 + 1e-6) * div_c)
    assert p_iters.sum() < p_iters_c.sum()
    assert h_iters.sum() < h_iters_c.sum()
