"""Tests for the extended analyses: particles, steering."""

import numpy as np
import pytest

from repro.insitu import NekDataAdaptor
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import lid_cavity_case, rayleigh_benard_case
from repro.sensei import ConfigurableAnalysis
from repro.sensei.analyses import (
    DivergenceGuard,
    ParticleTracer,
    SteadyStateDetector,
)


@pytest.fixture
def rbc_adaptor(comm):
    case = rayleigh_benard_case(
        rayleigh=1e4, aspect=(1, 1), elements_per_unit=2, order=3,
        dt=5e-3, num_steps=4,
    )
    solver = NekRSSolver(case, comm)
    solver.run(2)
    adaptor = NekDataAdaptor(solver)
    adaptor.set_data_time_step(2)
    adaptor.set_data_time(solver.time)
    return solver, adaptor


class TestParticleTracer:
    def _advected(self, comm, steps=4):
        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=1e-2)
        solver = NekRSSolver(case, comm)
        adaptor = NekDataAdaptor(solver)
        tracer = ParticleTracer(comm, num_particles=16, seed=3)
        for _ in range(steps):
            report = solver.step()
            adaptor.set_data_time_step(report.step)
            adaptor.set_data_time(report.time)
            tracer.execute(adaptor)
            adaptor.release_data()
        return solver, tracer

    def test_particles_move_with_flow(self, comm):
        _, tracer = self._advected(comm)
        assert len(tracer.trajectory) == 4
        disp = np.linalg.norm(tracer.displacement, axis=1)
        assert disp.max() > 0  # the lid drags nearby tracers

    def test_particles_stay_in_domain(self, comm):
        _, tracer = self._advected(comm)
        for snap in tracer.trajectory:
            assert (snap >= -1e-9).all()
            assert (snap <= 1.0 + 1e-9).all()

    def test_deterministic_by_seed(self, comm):
        _, a = self._advected(comm)
        _, b = self._advected(comm)
        np.testing.assert_array_equal(a.trajectory[-1], b.trajectory[-1])

    def test_csv_output(self, comm, tmp_path):
        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=1e-2)
        solver = NekRSSolver(case, comm)
        adaptor = NekDataAdaptor(solver)
        tracer = ParticleTracer(comm, num_particles=4, output_dir=tmp_path)
        for _ in range(2):
            r = solver.step()
            adaptor.set_data_time_step(r.step)
            adaptor.set_data_time(r.time)
            tracer.execute(adaptor)
            adaptor.release_data()
        tracer.finalize()
        csv = (tmp_path / "tracers.csv").read_text().splitlines()
        assert csv[0] == "snapshot,particle,x,y,z"
        assert len(csv) == 1 + 2 * 4

    def test_seed_box(self, comm):
        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=1e-2)
        solver = NekRSSolver(case, comm)
        adaptor = NekDataAdaptor(solver)
        tracer = ParticleTracer(
            comm, num_particles=8,
            seed_box=((0.4, 0.4, 0.4), (0.6, 0.6, 0.6)),
        )
        r = solver.step()
        adaptor.set_data_time_step(r.step)
        tracer.execute(adaptor)
        assert (tracer.positions >= 0.4).all()
        assert (tracer.positions <= 0.6).all()

    def test_invalid_count(self, comm):
        with pytest.raises(ValueError):
            ParticleTracer(comm, num_particles=0)


class TestDivergenceGuard:
    def test_healthy_run_continues(self, comm, rbc_adaptor):
        _, adaptor = rbc_adaptor
        guard = DivergenceGuard(comm, array_name="temperature", limit=10.0)
        assert guard.execute(adaptor) is True
        assert guard.tripped_at is None

    def test_blowup_trips(self, comm, rbc_adaptor):
        solver, adaptor = rbc_adaptor
        solver.u[:] = 1e9
        adaptor.release_data()
        guard = DivergenceGuard(comm, array_name="velocity_magnitude", limit=1e6)
        assert guard.execute(adaptor) is False
        assert guard.tripped_at == 2

    def test_nan_trips(self, comm, rbc_adaptor):
        solver, adaptor = rbc_adaptor
        solver.p[0, 0, 0, 0] = np.nan
        adaptor.release_data()
        guard = DivergenceGuard(comm, array_name="pressure", limit=1e20)
        assert guard.execute(adaptor) is False

    def test_stops_run_through_bridge(self, comm, tmp_path):
        from repro.insitu import Bridge

        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=1e-2)
        solver = NekRSSolver(case, comm)
        xml = (
            '<sensei><analysis type="divergence_guard" '
            'array="velocity_magnitude" limit="1e-12"/></sensei>'
        )
        bridge = Bridge(solver, config_xml=xml, output_dir=tmp_path)
        report = solver.step()
        assert bridge.update(report.step, report.time) is False
        assert bridge.stop_requested


class TestSteadyStateDetector:
    def test_frozen_field_converges(self, comm, rbc_adaptor):
        _, adaptor = rbc_adaptor
        det = SteadyStateDetector(
            comm, array_name="temperature", tolerance=1e-9, patience=2
        )
        # same state offered repeatedly -> zero change -> stop after patience
        assert det.execute(adaptor) is True   # first sight: no history
        assert det.execute(adaptor) is True   # quiet 1
        assert det.execute(adaptor) is False  # quiet 2 -> stop
        assert det.converged_at == 2

    def test_changing_field_keeps_running(self, comm):
        case = lid_cavity_case(reynolds=100, elements=2, order=3, dt=1e-2)
        solver = NekRSSolver(case, comm)
        adaptor = NekDataAdaptor(solver)
        det = SteadyStateDetector(
            comm, array_name="velocity_magnitude", tolerance=1e-12, patience=1
        )
        for _ in range(3):
            r = solver.step()
            adaptor.set_data_time_step(r.step)
            assert det.execute(adaptor) is True
            adaptor.release_data()
        assert det.converged_at is None
        assert all(h > 1e-12 for h in det.history)

    def test_validation(self, comm):
        with pytest.raises(ValueError):
            SteadyStateDetector(comm, tolerance=0)
        with pytest.raises(ValueError):
            SteadyStateDetector(comm, patience=0)


class TestXMLRegistration:
    def test_new_types_constructible_from_xml(self, comm, tmp_path):
        xml = """
        <sensei>
          <analysis type="particles" count="8"/>
          <analysis type="divergence_guard" limit="1e9"/>
          <analysis type="steady_state" tolerance="1e-9"/>
        </sensei>
        """
        ca = ConfigurableAnalysis(comm, xml, output_dir=tmp_path)
        assert ca.active_types == [
            "particles", "divergence_guard", "steady_state"
        ]
