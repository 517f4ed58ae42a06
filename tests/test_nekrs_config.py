"""Tests for timestepper coefficients, CaseDefinition, and .par files."""

import numpy as np
import pytest

from repro.nekrs import (
    CaseDefinition,
    ScalarBC,
    VelocityBC,
    bdf_coefficients,
    ext_coefficients,
    par_to_overrides,
    read_par,
)
from repro.nekrs.parfile import ParFileError
from repro.nekrs.timestepper import effective_order
from repro.sem.mesh import BoundaryTag


class TestBDFCoefficients:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_consistency_first_order(self, order):
        """b0 - sum(b) = 0 (constants are steady states)."""
        b0, b = bdf_coefficients(order)
        assert b0 - sum(b) == pytest.approx(0.0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exactness_on_linear(self, order):
        """BDF differentiates u(t) = t exactly: b0*u^{n+1} - sum b_j u^{n-j} = dt."""
        b0, b = bdf_coefficients(order)
        dt = 0.1
        t_new = 1.0
        lhs = b0 * t_new - sum(bj * (t_new - (j + 1) * dt) for j, bj in enumerate(b))
        assert lhs / dt == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [2, 3])
    def test_exactness_on_quadratic(self, order):
        b0, b = bdf_coefficients(order)
        dt = 0.1
        f = lambda t: t * t
        t_new = 1.0
        lhs = b0 * f(t_new) - sum(
            bj * f(t_new - (j + 1) * dt) for j, bj in enumerate(b)
        )
        assert lhs / dt == pytest.approx(2 * t_new)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            bdf_coefficients(4)


class TestEXTCoefficients:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_sum_to_one(self, order):
        assert sum(ext_coefficients(order)) == pytest.approx(1.0)

    @pytest.mark.parametrize("order", [2, 3])
    def test_exact_on_linear(self, order):
        """Extrapolation of f(t)=t from past values hits t^{n+1}."""
        a = ext_coefficients(order)
        dt = 0.1
        t_new = 1.0
        pred = sum(aj * (t_new - (j + 1) * dt) for j, aj in enumerate(a))
        assert pred == pytest.approx(t_new)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            ext_coefficients(0)


class TestEffectiveOrder:
    def test_ramps_up(self):
        assert [effective_order(3, s) for s in range(5)] == [1, 2, 3, 3, 3]

    def test_order_one_constant(self):
        assert effective_order(1, 10) == 1


class TestCaseDefinition:
    def _minimal(self, **kw):
        defaults = dict(
            name="t", mesh_shape=(2, 2, 2), extent=((0, 0, 0), (1, 1, 1))
        )
        defaults.update(kw)
        return CaseDefinition(**defaults)

    def test_defaults(self):
        case = self._minimal()
        assert not case.has_temperature
        assert case.total_gridpoints() == 8 * 6**3

    def test_negative_viscosity(self):
        with pytest.raises(ValueError):
            self._minimal(viscosity=-1.0)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            self._minimal(dt=0.0)

    def test_bad_time_order(self):
        with pytest.raises(ValueError):
            self._minimal(time_order=5)

    def test_velocity_and_pressure_bc_conflict(self):
        with pytest.raises(ValueError):
            self._minimal(
                velocity_bcs={BoundaryTag.ZMAX: VelocityBC()},
                pressure_dirichlet=(BoundaryTag.ZMAX,),
            )

    def test_with_overrides(self):
        case = self._minimal()
        new = case.with_overrides(dt=0.5, num_steps=7)
        assert new.dt == 0.5 and new.num_steps == 7
        assert case.dt != 0.5  # original unchanged

    def test_conductivity_enables_temperature(self):
        assert self._minimal(conductivity=0.1).has_temperature


class TestVelocityBC:
    def test_constant_components(self):
        bc = VelocityBC(u=2.0)
        x = np.zeros((2, 2))
        u, v, w = bc.evaluate(x, x, x, 0.0)
        np.testing.assert_array_equal(u, 2.0)
        np.testing.assert_array_equal(v, 0.0)

    def test_callable_component(self):
        bc = VelocityBC(u=lambda x, y, z, t: x * t)
        x = np.array([[1.0, 2.0]])
        u, _, _ = bc.evaluate(x, x, x, 3.0)
        np.testing.assert_array_equal(u, [[3.0, 6.0]])

    def test_scalar_bc(self):
        bc = ScalarBC(lambda x, y, z, t: y + t)
        y = np.array([1.0, 2.0])
        np.testing.assert_array_equal(bc.evaluate(y, y, y, 1.0), [2.0, 3.0])


def _write_par(path, sections):
    """A .par file from {SECTION: {key: value}}."""
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for section, entries in sections.items()))


class TestParFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "case.par"
        _write_par(path, {
            "GENERAL": {"polynomialOrder": 7, "dt": 1e-3, "numSteps": 3000},
            "VELOCITY": {"viscosity": 1e-2},
        })
        par = read_par(path)
        assert par["general"]["dt"] == "0.001"
        over = par_to_overrides(par)
        assert over == {
            "order": 7, "dt": 1e-3, "num_steps": 3000, "viscosity": 1e-2
        }

    def test_temperature_section(self, tmp_path):
        path = tmp_path / "t.par"
        _write_par(path, {"TEMPERATURE": {"conductivity": 0.5}})
        assert par_to_overrides(read_par(path)) == {"conductivity": 0.5}

    def test_unknown_key_raises(self, tmp_path):
        path = tmp_path / "bad.par"
        _write_par(path, {"GENERAL": {"tyop": 1}})
        with pytest.raises(ParFileError, match="tyop"):
            par_to_overrides(read_par(path))

    def test_bad_value_raises(self, tmp_path):
        path = tmp_path / "bad.par"
        _write_par(path, {"GENERAL": {"dt": "soon"}})
        with pytest.raises(ParFileError, match="dt"):
            par_to_overrides(read_par(path))

    def test_passthrough_keys_ignored(self, tmp_path):
        path = tmp_path / "w.par"
        _write_par(path, {"GENERAL": {"writeInterval": 100}})
        assert par_to_overrides(read_par(path)) == {}

    def test_overrides_apply_to_case(self, tmp_path):
        from repro.nekrs.cases import lid_cavity_case

        path = tmp_path / "c.par"
        _write_par(path, {"GENERAL": {"dt": 0.25}})
        case = lid_cavity_case().with_overrides(**par_to_overrides(read_par(path)))
        assert case.dt == 0.25

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "x.par"
        path.write_text("this is not ini [")
        with pytest.raises(ParFileError):
            read_par(path)
