"""The factored uniform-box operators against an independent oracle.

``SEMOperators`` applies the weak Laplacian as one x-y Kronecker GEMM
plus one z-apply (see :mod:`repro.sem.operators`).  The oracle here is
the textbook D-form it replaced, D_r^T G_rr D_r + D_s^T G_ss D_s +
D_t^T G_tt D_t with per-node factors G = w3d J (dr/dx)^2, built from
the reference einsums only; it shares no arithmetic with either the
optimized path or its ``naive_mode()`` twin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import SerialCommunicator
from repro.perf import naive_mode
from repro.sem import BoxMesh, SEMOperators
from repro.sem.tensor import (
    apply_1d_x_reference,
    apply_1d_y_reference,
    apply_1d_z_reference,
)

#: (shape, extent, periodic): a cube, an anisotropic slab and a
#: periodic box, so c_r, c_s and c_t all differ somewhere
MESHES = [
    ((2, 2, 2), ((0, 0, 0), (1, 1, 1)), (False, False, False)),
    ((3, 2, 1), ((0, 0, 0), (1.5, 0.4, 2.0)), (False, False, False)),
    ((2, 3, 2), ((-1, 0, 0.5), (2.0, 1.0, 0.9)), (True, False, True)),
]
ORDERS = range(2, 13)


def _ops(mesh, order):
    shape, extent, periodic = mesh
    return SEMOperators(
        BoxMesh(shape, extent, order=order, periodic=periodic),
        SerialCommunicator(),
    )


def _factors(ops):
    g = ops.geom
    return g.mass * g.rx * g.rx, g.mass * g.sy * g.sy, g.mass * g.tz * g.tz


def d_form_stiffness(ops, f):
    D = ops.D
    grr, gss, gtt = _factors(ops)
    out = apply_1d_x_reference(D.T, grr * apply_1d_x_reference(D, f))
    out += apply_1d_y_reference(D.T, gss * apply_1d_y_reference(D, f))
    out += apply_1d_z_reference(D.T, gtt * apply_1d_z_reference(D, f))
    return out


def d_form_diagonal(ops, h1, h0):
    D2 = ops.D * ops.D
    grr, gss, gtt = _factors(ops)
    diag = np.einsum("mi,ekjm->ekji", D2, grr)
    diag += np.einsum("mj,ekmi->ekji", D2, gss)
    diag += np.einsum("mk,emji->ekji", D2, gtt)
    return ops.gs(h1 * diag + h0 * ops.geom.mass)


def _close(actual, expected, rtol=1e-13):
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= rtol * scale


def _field(ops, seed):
    return np.random.default_rng(seed).normal(size=ops.mesh.field_shape())


@pytest.mark.parametrize("mesh", MESHES, ids=["cube", "slab", "periodic"])
@pytest.mark.parametrize("order", ORDERS)
class TestAgainstTheDForm:
    def test_stiffness(self, mesh, order):
        ops = _ops(mesh, order)
        f = _field(ops, order)
        _close(ops.stiffness_apply(f), d_form_stiffness(ops, f))

    def test_helmholtz_scalar_and_field_h0(self, mesh, order):
        ops = _ops(mesh, order)
        f = _field(ops, order + 1)
        chi = np.random.default_rng(order).uniform(0, 50, size=f.shape)
        A = d_form_stiffness(ops, f)
        for h0 in (7.5, chi):
            _close(ops.helmholtz_apply(f, 0.3, h0), 0.3 * A + h0 * ops.geom.mass * f)

    def test_diagonal(self, mesh, order):
        ops = _ops(mesh, order)
        _close(ops.stiffness_diagonal(), d_form_diagonal(ops, 1.0, 0.0))
        _close(ops.stiffness_diagonal(0.3, 7.5), d_form_diagonal(ops, 0.3, 7.5))


@pytest.mark.parametrize("mesh", MESHES, ids=["cube", "slab", "periodic"])
@pytest.mark.parametrize("order", [2, 5, 9, 12])
class TestOperatorProperties:
    def test_constants_are_in_the_null_space(self, mesh, order):
        ops = _ops(mesh, order)
        ones = np.ones(ops.mesh.field_shape())
        scale = np.abs(ops.stiffness_apply(_field(ops, 3))).max()
        assert np.abs(ops.stiffness_apply(ones)).max() <= 1e-13 * scale

    def test_assembled_operator_is_symmetric(self, mesh, order):
        ops = _ops(mesh, order)
        u = ops.continuize(_field(ops, 1))
        v = ops.continuize(_field(ops, 2))
        uAv = ops.dot(u, ops.assemble(ops.stiffness_apply(v)))
        vAu = ops.dot(v, ops.assemble(ops.stiffness_apply(u)))
        assert uAv == pytest.approx(vAu, rel=1e-12)
        assert ops.dot(u, ops.assemble(ops.stiffness_apply(u))) > 0


@pytest.mark.parametrize("order", range(2, 10))
def test_fast_path_equals_its_naive_twin_bit_for_bit(order):
    ops = _ops(MESHES[1], order)
    f = _field(ops, 11)
    chi = np.random.default_rng(12).uniform(0, 50, size=f.shape)
    calls = [
        lambda: ops.stiffness_apply(f),
        lambda: ops.stiffness_apply(f, out=np.empty_like(f)),
        lambda: ops.helmholtz_apply(f, 0.3, 7.5),
        lambda: ops.helmholtz_apply(f, 1.0, chi, out=np.empty_like(f)),
        lambda: ops.helmholtz_apply(
            f, 0.3, chi, weights=ops.helmholtz_weights(0.3, chi)
        ),
        lambda: ops.stiffness_diagonal(0.3, chi),
    ]
    for call in calls:
        fast = call()
        with naive_mode():
            slow = call()
        np.testing.assert_array_equal(fast, slow)
