"""Physics and behavior tests for the Navier-Stokes solver.

These are the validation tests a CFD code must pass: analytic decay
(Taylor-Green), divergence control, boundary-condition enforcement,
serial/parallel equivalence, Boussinesq buoyancy direction, Brinkman
penalization, and conservation sanity.
"""

import math

import numpy as np
import pytest

import repro.nekrs.solver as solver_module
from repro.nekrs import CaseDefinition, NekRSSolver
from repro.nekrs.cases import (
    lid_cavity_case,
    pebble_bed_case,
    rayleigh_benard_case,
)
from repro.observe import TelemetrySession, naming_violations
from repro.parallel import SerialCommunicator, run_spmd
from repro.sem.mesh import BoundaryTag


def taylor_green_case(dt=0.02, steps=10, order=6, viscosity=0.05):
    L = 2 * math.pi
    return CaseDefinition(
        name="tgv",
        mesh_shape=(2, 2, 2),
        extent=((0, 0, 0), (L, L, L)),
        order=order,
        periodic=(True, True, True),
        viscosity=viscosity,
        dt=dt,
        num_steps=steps,
        time_order=2,
        pressure_tol=1e-9,
        velocity_tol=1e-10,
        initial_velocity=lambda x, y, z: (
            np.sin(x) * np.cos(y),
            -np.cos(x) * np.sin(y),
            np.zeros_like(x),
        ),
    )


class TestTaylorGreen:
    """Analytic solution: u decays as exp(-2 nu t), pressure follows."""

    def test_velocity_error_small(self):
        case = taylor_green_case(dt=0.02, steps=10)
        s = NekRSSolver(case, SerialCommunicator())
        s.run(10)
        x, y, _ = s.mesh.coords()
        decay = math.exp(-2 * case.viscosity * s.time)
        ue = np.sin(x) * np.cos(y) * decay
        err = s.ops.norm(s.u - ue) / s.ops.norm(ue)
        assert err < 5e-4

    def test_error_decreases_with_dt(self):
        errs = []
        for dt, steps in ((0.04, 5), (0.01, 20)):
            case = taylor_green_case(dt=dt, steps=steps)
            s = NekRSSolver(case, SerialCommunicator())
            s.run(steps)
            x, y, _ = s.mesh.coords()
            decay = math.exp(-2 * case.viscosity * s.time)
            ue = np.sin(x) * np.cos(y) * decay
            errs.append(s.ops.norm(s.u - ue) / s.ops.norm(ue))
        assert errs[1] < errs[0]

    def test_kinetic_energy_decays_at_analytic_rate(self):
        case = taylor_green_case(dt=0.02, steps=10)
        s = NekRSSolver(case, SerialCommunicator())
        ke0 = s.kinetic_energy()
        s.run(10)
        expected = ke0 * math.exp(-4 * case.viscosity * s.time)
        assert s.kinetic_energy() == pytest.approx(expected, rel=2e-3)

    def test_w_component_stays_zero(self):
        case = taylor_green_case(steps=5)
        s = NekRSSolver(case, SerialCommunicator())
        s.run(5)
        assert s.ops.norm(s.w) < 1e-8


class TestDivergence:
    def test_divergence_bounded(self, tiny_solver):
        reports = tiny_solver.run(3)
        # pointwise divergence is controlled by the pressure tolerance
        assert reports[-1].divergence_norm < 50.0
        assert np.isfinite(reports[-1].divergence_norm)

    def test_divergence_shrinks_with_pressure_tol(self):
        """A barely-solved pressure leaves much more divergence; at
        tight tolerances the splitting error dominates instead."""
        divs = {}
        for tol in (0.5, 1e-8):
            case = taylor_green_case(dt=0.02, steps=3).with_overrides(
                pressure_tol=tol
            )
            s = NekRSSolver(case, SerialCommunicator())
            reports = s.run(3)
            divs[tol] = reports[-1].divergence_norm
        assert divs[1e-8] < divs[0.5]


class TestBoundaryConditions:
    def test_noslip_walls_enforced(self, tiny_solver):
        tiny_solver.run(2)
        for tag in (BoundaryTag.XMIN, BoundaryTag.XMAX, BoundaryTag.ZMIN):
            nodes = tiny_solver.mesh.boundary_nodes(tag)
            np.testing.assert_allclose(tiny_solver.u[nodes], 0.0, atol=1e-12)
            np.testing.assert_allclose(tiny_solver.w[nodes], 0.0, atol=1e-12)

    def test_lid_velocity_enforced(self, tiny_solver):
        tiny_solver.run(2)
        lid = tiny_solver.mesh.boundary_nodes(BoundaryTag.ZMAX)
        x, y, _ = tiny_solver.mesh.coords()
        expected = (16.0 * x * (1 - x) * y * (1 - y)) ** 2
        np.testing.assert_allclose(
            tiny_solver.u[lid], expected[lid], atol=1e-10
        )

    def test_lid_drives_flow(self, tiny_solver):
        assert tiny_solver.kinetic_energy() == 0.0
        tiny_solver.run(3)
        assert tiny_solver.kinetic_energy() > 0.0

    def test_time_dependent_bc(self):
        case = lid_cavity_case(elements=2, order=3, dt=1e-2)
        ramp = case.with_overrides(
            velocity_bcs={
                **case.velocity_bcs,
                BoundaryTag.ZMAX: type(case.velocity_bcs[BoundaryTag.ZMAX])(
                    u=lambda x, y, z, t: t
                ),
            }
        )
        s = NekRSSolver(ramp, SerialCommunicator())
        s.run(2)
        # lid nodes that are NOT shared with the side walls (edge nodes
        # take the wall's no-slip value; application order is by face)
        x, y, _ = s.mesh.coords()
        lid = s.mesh.boundary_nodes(BoundaryTag.ZMAX) & (x > 1e-9) & (x < 1 - 1e-9) \
            & (y > 1e-9) & (y < 1 - 1e-9)
        np.testing.assert_allclose(s.u[lid], s.time, atol=1e-12)


class TestParallelEquivalence:
    def test_serial_vs_four_ranks(self):
        """The solver is rank-count invariant to roundoff."""

        def body(comm):
            case = lid_cavity_case(elements=2, order=3, dt=5e-3)
            s = NekRSSolver(case, comm)
            reports = s.run(3)
            return (
                s.kinetic_energy(),
                reports[-1].pressure_iterations,
                reports[-1].divergence_norm,
            )

        serial = run_spmd(1, body)[0]
        par = run_spmd(4, body)[0]
        assert par[0] == pytest.approx(serial[0], rel=1e-10)
        assert par[1] == serial[1]
        assert par[2] == pytest.approx(serial[2], rel=1e-6)


class TestBoussinesq:
    def test_hot_fluid_rises(self):
        """Unstable stratification + buoyancy drives upward flow."""
        case = rayleigh_benard_case(
            rayleigh=1e5, aspect=(1, 1), elements_per_unit=2, order=4,
            dt=5e-3, num_steps=20,
        )
        s = NekRSSolver(case, SerialCommunicator())
        s.run(20)
        assert s.kinetic_energy() > 1e-10
        # rising fluid is hotter than sinking fluid on the midplane
        mid = np.abs(s.mesh.z - 0.5) < 0.15
        up = mid & (s.w > np.percentile(s.w[mid], 90))
        down = mid & (s.w < np.percentile(s.w[mid], 10))
        assert s.T[up].mean() > s.T[down].mean()

    def test_conductive_state_without_perturbation_stays_still(self):
        case = rayleigh_benard_case(
            rayleigh=1e3, aspect=(1, 1), elements_per_unit=2, order=3,
            dt=5e-3, num_steps=5,
        )
        # pure conductive profile (no perturbation): no flow develops
        case = case.with_overrides(initial_temperature=lambda x, y, z: 0.5 - z)
        s = NekRSSolver(case, SerialCommunicator())
        s.run(5)
        # hydrostatic balance up to splitting error: no convection forms
        assert s.kinetic_energy() < 1e-6

    def test_temperature_bounded_by_plates(self):
        case = rayleigh_benard_case(
            rayleigh=1e4, aspect=(1, 1), elements_per_unit=2, order=4,
            dt=5e-3, num_steps=10,
        )
        s = NekRSSolver(case, SerialCommunicator())
        s.run(10)
        # maximum principle (up to small overshoot from the perturbation)
        assert s.T.max() <= 0.55
        assert s.T.min() >= -0.55


class TestBrinkman:
    def test_velocity_suppressed_inside_pebbles(self):
        case = pebble_bed_case(
            num_pebbles=2, elements_per_unit=3, order=3, dt=2e-3,
            num_steps=10,
        )
        s = NekRSSolver(case, SerialCommunicator())
        s.run(10)
        solid = s.chi > 0.5 * 1e4
        fluid = s.chi < 1.0
        speed = np.sqrt(s.u**2 + s.v**2 + s.w**2)
        # an order of magnitude of suppression at this coarse resolution
        assert speed[solid].mean() < 0.1 * speed[fluid].mean()

    def test_negative_chi_rejected(self):
        case = lid_cavity_case(elements=2, order=2).with_overrides(
            brinkman=lambda x, y, z: -np.ones_like(x)
        )
        with pytest.raises(ValueError):
            NekRSSolver(case, SerialCommunicator())


class TestSolverBookkeeping:
    def test_step_reports_monotone_time(self, tiny_solver):
        reports = tiny_solver.run(3)
        times = [r.time for r in reports]
        assert times == sorted(times)
        assert reports[-1].step == 3

    def test_observer_called_every_step(self, tiny_solver):
        seen = []
        tiny_solver.run(3, observer=lambda s, r: seen.append(r.step))
        assert seen == [1, 2, 3]

    def test_memory_bytes_positive_and_stable(self, tiny_solver):
        m0 = tiny_solver.memory_bytes()
        tiny_solver.run(3)
        m1 = tiny_solver.memory_bytes()
        assert m0 > 0
        # histories fill up after start-up, then stay flat
        tiny_solver.run(2)
        assert tiny_solver.memory_bytes() == m1

    def test_cfl_positive_with_flow(self, tiny_solver):
        tiny_solver.run(2)
        assert tiny_solver.cfl() > 0

    def test_device_fields_alias_state(self, tiny_solver):
        tiny_solver.run(1)
        np.testing.assert_array_equal(
            tiny_solver.device_fields["pressure"].copy_to_host(), tiny_solver.p
        )

    def test_local_gridpoints(self, tiny_solver):
        assert tiny_solver.local_gridpoints() == 8 * 4**3


class TestTimeInvariantInputs:
    """The heat source and constant Dirichlet values are evaluated once,
    at setup; a callable boundary value every step."""

    STEPS = 3

    @staticmethod
    def _counting(fn, calls):
        def counted(*args):
            calls.append(args[-1])
            return fn(*args)
        return counted

    def test_heat_source_is_evaluated_once(self):
        case = pebble_bed_case(num_pebbles=2, elements_per_unit=2, order=3,
                               dt=1e-3)
        calls = []
        case = case.with_overrides(
            heat_source=self._counting(case.heat_source, calls),
        )
        solver = NekRSSolver(case, SerialCommunicator())
        assert len(calls) == 1
        solver.run(self.STEPS)
        assert len(calls) == 1

    def test_constant_dirichlet_fields_are_built_once(self, monkeypatch):
        from repro.nekrs.config import ScalarBC, VelocityBC

        calls = []
        for cls in (VelocityBC, ScalarBC):
            monkeypatch.setattr(cls, "evaluate",
                                self._counting(cls.evaluate, calls))
        case = rayleigh_benard_case(rayleigh=1e4, aspect=(1, 1),
                                    elements_per_unit=2, order=3, dt=5e-3)
        solver = NekRSSolver(case, SerialCommunicator())
        at_setup = len(calls)
        assert at_setup == 4        # two velocity and two temperature faces
        solver.run(self.STEPS)
        assert len(calls) == at_setup

    def test_a_callable_boundary_value_is_evaluated_every_step(self):
        base = lid_cavity_case(elements=2, order=3, dt=5e-3)
        lid_calls = []
        lid = base.velocity_bcs[BoundaryTag.ZMAX]
        bcs = dict(base.velocity_bcs)
        bcs[BoundaryTag.ZMAX] = type(lid)(u=self._counting(lid.u, lid_calls))
        solver = NekRSSolver(base.with_overrides(velocity_bcs=bcs),
                             SerialCommunicator())
        assert lid_calls == []
        solver.run(self.STEPS)
        # each step evaluates the lid at its new time level
        assert lid_calls == pytest.approx(
            [n * 5e-3 for n in range(1, self.STEPS + 1)])


class TestUnconvergedSolves:
    """A solve that stops short of its tolerance is counted, not silent."""

    @staticmethod
    def _case(**overrides):
        case = rayleigh_benard_case(
            rayleigh=1e4, aspect=(1, 1), elements_per_unit=2, order=3,
            dt=5e-3, num_steps=3,
        )
        return case.with_overrides(**overrides)

    def test_iteration_cap_is_reported_every_step(self, monkeypatch, capsys):
        results, real_cg = [], solver_module.cg_solve

        def recording_cg(*args, **kw):
            results.append(real_cg(*args, **kw))
            return results[-1]

        monkeypatch.setattr(solver_module, "cg_solve", recording_cg)
        solver = NekRSSolver(self._case(max_iterations=1), SerialCommunicator())
        for _ in range(3):
            results.clear()
            report = solver.step()
            assert len(results) == 5          # T, p, u, v, w
            assert report.unconverged_solves >= 1
            assert report.unconverged_solves == sum(
                not r.converged for r in results
            )
        # one warning per solver instance, not one per step
        assert capsys.readouterr().err.count("stopped before reaching tolerance") == 1

    def test_default_run_reports_zero(self, capsys):
        solver = NekRSSolver(self._case(), SerialCommunicator())
        assert [r.unconverged_solves for r in solver.run(3)] == [0, 0, 0]
        assert "tolerance" not in capsys.readouterr().err

    def test_counted_in_telemetry(self):
        session = TelemetrySession("unconverged")
        with session.activate(0) as tel:
            solver = NekRSSolver(self._case(max_iterations=1), SerialCommunicator())
            total = sum(r.unconverged_solves for r in solver.run(2))
        assert tel.metrics.get("repro_solver_unconverged_solves_total").value == total
        assert tel.metrics.get("repro_solver_pressure_iterations").stats.count == 2
        assert naming_violations(tel.metrics) == []


class TestStartingGuesses:
    """Pressure starts from the projection onto its last solutions,
    velocity and scalars from the EXT extrapolation of their history."""

    L = 8  # NekRS's default basis size

    @staticmethod
    def _gram(solver):
        ops, proj = solver.ops, solver._pressure_proj

        def apply_pressure(f):
            return ops.assemble(ops.stiffness_apply(f)) * solver.pressure_mask

        X = proj.basis[: proj.count]
        return np.array([[ops.dot(a, apply_pressure(b)) for b in X] for a in X])

    @pytest.mark.parametrize("case", ["cavity", "pebble"])
    def test_pressure_basis_stays_a_orthonormal_through_the_rollover(self, case):
        """Cavity: all-Neumann pressure (nullspace-projected basis);
        pebble: Dirichlet outflow (masked basis)."""
        if case == "cavity":
            case = lid_cavity_case(elements=2, order=3, dt=5e-3)
        else:
            case = pebble_bed_case(num_pebbles=2, elements_per_unit=2,
                                   order=4, dt=1e-3)
        solver = NekRSSolver(case, SerialCommunicator())
        counts = []
        for _ in range(self.L + 2):
            solver.step()
            counts.append(solver._pressure_proj.count)
            gram = self._gram(solver)
            assert np.abs(gram - np.eye(len(gram))).max() < 1e-10
        assert counts == [1, 2, 3, 4, 5, 6, 7, 8, 1, 2]

    @pytest.mark.parametrize("steps", [1, L - 1, L])
    def test_restart_at_any_basis_count_continues_bitexactly(self, tmp_path, steps):
        from repro.nekrs.restart import read_restart, write_restart

        case = lid_cavity_case(elements=2, order=3, dt=5e-3)
        direct = NekRSSolver(case, SerialCommunicator())
        tail = direct.run(steps + 2)[-2:]

        first = NekRSSolver(case, SerialCommunicator())
        first.run(steps)
        assert first._pressure_proj.count == steps
        write_restart(tmp_path, first)
        resumed = NekRSSolver(case, SerialCommunicator())
        read_restart(tmp_path, resumed)
        assert resumed._pressure_proj.count == steps
        reports = resumed.run(2)

        assert [r.pressure_iterations for r in reports] == [
            r.pressure_iterations for r in tail
        ]
        np.testing.assert_array_equal(resumed.u, direct.u)
        np.testing.assert_array_equal(resumed.p, direct.p)
        np.testing.assert_array_equal(
            resumed._pressure_proj.basis[: resumed._pressure_proj.count],
            direct._pressure_proj.basis[: direct._pressure_proj.count],
        )

    def test_memory_bytes_counts_the_projection_basis(self, tiny_solver):
        proj = tiny_solver._pressure_proj
        assert proj.basis.shape == (self.L,) + tiny_solver.p.shape
        full = tiny_solver.memory_bytes()
        proj.basis = proj.basis[:1]
        assert full - tiny_solver.memory_bytes() == (self.L - 1) * tiny_solver.p.nbytes

    def test_the_projection_is_not_an_option(self):
        """One basis size: no .par key, config field, CLI flag or
        environment variable names the starting guesses."""
        import dataclasses
        from pathlib import Path

        src = Path(solver_module.__file__).resolve().parents[1]
        for rel in ("nekrs/config.py", "nekrs/parfile.py", "cli.py"):
            text = (src / rel).read_text().lower()
            for word in ("residualproj", "residual_proj", "initialguess",
                         "initial_guess", "extrapolat", "pproj"):
                assert word not in text, (rel, word)
        names = [f.name for f in dataclasses.fields(CaseDefinition)]
        assert not [n for n in names if "proj" in n or "guess" in n], names
        for path in (src / "nekrs/solver.py", src / "sem/krylov.py"):
            assert "environ" not in path.read_text(), path
