"""Tests for tensor-product operator application."""

import numpy as np
import pytest

from repro.sem.quadrature import derivative_matrix, gll_nodes_weights
from repro.sem.tensor import (
    apply_1d_x,
    apply_1d_y,
    apply_1d_z,
    apply_3d,
    local_grad,
)


@pytest.fixture
def field(rng):
    return rng.normal(size=(3, 5, 5, 5))


class TestApply1D:
    def test_identity(self, field):
        I = np.eye(5)
        for op in (apply_1d_x, apply_1d_y, apply_1d_z):
            np.testing.assert_allclose(op(I, field), field)

    def test_axis_independence(self, field, rng):
        """Applying along x must not mix y/z indices."""
        A = rng.normal(size=(5, 5))
        out = apply_1d_x(A, field)
        np.testing.assert_allclose(out[0, 1, 2], A @ field[0, 1, 2])

    def test_y_axis(self, field, rng):
        A = rng.normal(size=(5, 5))
        out = apply_1d_y(A, field)
        np.testing.assert_allclose(out[1, 3, :, 2], A @ field[1, 3, :, 2])

    def test_z_axis(self, field, rng):
        A = rng.normal(size=(5, 5))
        out = apply_1d_z(A, field)
        np.testing.assert_allclose(out[2, :, 0, 4], A @ field[2, :, 0, 4])

    def test_rectangular_operator(self, field, rng):
        A = rng.normal(size=(3, 5))
        assert apply_1d_x(A, field).shape == (3, 5, 5, 3)
        assert apply_1d_y(A, field).shape == (3, 5, 3, 5)
        assert apply_1d_z(A, field).shape == (3, 3, 5, 5)


class TestApply3D:
    def test_matches_kron(self, rng):
        """Tensor apply equals the explicit Kronecker-product matrix."""
        n = 3
        f = rng.normal(size=(1, n, n, n))
        Ax, Ay, Az = (rng.normal(size=(n, n)) for _ in range(3))
        out = apply_3d(Ax, Ay, Az, f)
        K = np.kron(Az, np.kron(Ay, Ax))
        np.testing.assert_allclose(out.ravel(), K @ f.ravel())


class TestLocalGrad:
    def test_gradient_of_linear_fields(self):
        order = 4
        x1, _ = gll_nodes_weights(order)
        D = derivative_matrix(order)
        X, Y, Z = np.meshgrid(x1, x1, x1, indexing="ij")
        # field axes are [e, k(z), j(y), i(x)]
        f = (2 * X + 3 * Y - Z).transpose(2, 1, 0)[None]
        fr, fs, ft = local_grad(D, f)
        np.testing.assert_allclose(fr, 2.0, atol=1e-11)
        np.testing.assert_allclose(fs, 3.0, atol=1e-11)
        np.testing.assert_allclose(ft, -1.0, atol=1e-11)

    def test_transpose_is_adjoint(self, rng):
        """<grad f, g> == <f, grad^T g> for the stacked operator."""
        order = 3
        D = derivative_matrix(order)
        f = rng.normal(size=(2, 4, 4, 4))
        gr, gs, gt = (rng.normal(size=(2, 4, 4, 4)) for _ in range(3))
        fr, fs, ft = local_grad(D, f)
        lhs = (fr * gr + fs * gs + ft * gt).sum()
        grad_t = apply_1d_x(D.T, gr) + apply_1d_y(D.T, gs) + apply_1d_z(D.T, gt)
        rhs = (f * grad_t).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)
