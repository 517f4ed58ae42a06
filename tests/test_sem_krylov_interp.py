"""Tests for the CG solver and spectral resampling."""

import numpy as np
import pytest

from repro.parallel import SerialCommunicator, run_spmd
from repro.sem import BoxMesh, SEMOperators, cg_solve, BoundaryTag
from repro.sem.krylov import ResidualProjection
from repro.sem.interp import grid_dims, local_blocks, resample_field


def assemble_global_grid(mesh, blocks, samples, fill=0.0):
    """Place `local_blocks` output (from any ranks) into the global
    uniform grid, indexed [k, j, i]."""
    nx, ny, nz = grid_dims(mesh, samples)
    grid = np.full((nz, ny, nx), fill)
    for (ox, oy, oz), block in blocks:
        s = block.shape[0]
        grid[oz : oz + s, oy : oy + s, ox : ox + s] = block
    return grid


class TestCGOnSPDMatrix:
    """CG against a small dense SPD system (dot = plain dot)."""

    def _solve(self, n=20, seed=1, **kw):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        x_true = rng.normal(size=n)
        b = A @ x_true
        res = cg_solve(lambda v: A @ v, b, lambda u, v: float(u @ v), **kw)
        return res, x_true

    def test_converges(self):
        res, x_true = self._solve(tol=1e-12, max_iterations=200)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)

    def test_jacobi_preconditioner_helps(self):
        rng = np.random.default_rng(0)
        n = 40
        # badly scaled diagonal system + small coupling
        d = 10.0 ** rng.uniform(0, 4, size=n)
        A = np.diag(d) + 0.1 * np.ones((n, n))
        b = rng.normal(size=n)
        dot = lambda u, v: float(u @ v)
        plain = cg_solve(lambda v: A @ v, b, dot, tol=1e-10, max_iterations=3000)
        pre = cg_solve(
            lambda v: A @ v, b, dot, precond=1.0 / np.diag(A),
            tol=1e-10, max_iterations=3000,
        )
        assert pre.iterations < plain.iterations

    def test_zero_rhs(self):
        res, _ = self._solve()
        out = cg_solve(lambda v: v, np.zeros(5), lambda u, v: float(u @ v))
        assert out.converged and out.iterations == 0
        np.testing.assert_array_equal(out.x, 0.0)

    @staticmethod
    def _warm_and_cold(guess, tol=1e-10):
        """One SPD system solved from ``guess(x_true)`` and from zero."""
        rng = np.random.default_rng(3)
        n = 15
        M = rng.normal(size=(n, n))
        A = M @ M.T + n * np.eye(n)
        x_true = rng.normal(size=n)
        b = A @ x_true
        dot = lambda u, v: float(u @ v)

        def solve(x0):
            return cg_solve(lambda v: A @ v, b, dot, x0=x0, tol=tol,
                            max_iterations=300)

        return solve(guess(x_true)), solve(None), x_true, b

    def test_x0_warm_start(self):
        warm, cold, x_true, b = self._warm_and_cold(lambda x: x + 1e-6)
        # the tolerance is relative to ||b||, not to the guess's residual,
        # so a good initial guess starts closer and stops sooner
        assert warm.initial_residual < 1e-3 * cold.initial_residual
        assert warm.iterations < cold.iterations
        assert warm.residual <= 1e-10 * np.linalg.norm(b)
        np.testing.assert_allclose(warm.x, x_true, atol=1e-8)

    def test_x0_worse_than_zero_is_dropped(self):
        """A guess whose residual exceeds ||b|| (here 11 ||b||) iterates
        exactly like the cold start."""
        warm, cold, _, _ = self._warm_and_cold(lambda x: -10.0 * x)
        assert warm.iterations == cold.iterations
        assert warm.initial_residual == cold.initial_residual
        np.testing.assert_array_equal(warm.x, cold.x)

    def test_x0_that_already_meets_the_bound_costs_no_iteration(self):
        warm, _, x_true, _ = self._warm_and_cold(lambda x: x + 1e-12, tol=1e-8)
        assert warm.converged and warm.iterations == 0
        np.testing.assert_array_equal(warm.x, x_true + 1e-12)

    def test_max_iterations_reports_not_converged(self):
        res, _ = self._solve(tol=1e-14, max_iterations=1)
        assert not res.converged
        assert res.iterations == 1

    def test_indefinite_bails_out(self):
        A = np.diag([1.0, -1.0])
        b = np.array([1.0, 1.0])
        res = cg_solve(lambda v: A @ v, b, lambda u, v: float(u @ v), max_iterations=50)
        assert not res.converged


class TestCGOnSEM:
    def test_dirichlet_poisson_parallel_matches_serial(self):
        shape, order = (3, 2, 2), 4

        def body(comm):
            mesh = BoxMesh(shape, order=order, rank=comm.rank, size=comm.size)
            ops = SEMOperators(mesh, comm)
            x, y, z = mesh.coords()
            ue = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
            mask = ~mesh.boundary_union(list(BoundaryTag))
            b = ops.assemble(ops.mass_apply(3 * np.pi**2 * ue)) * mask
            diag = ops.stiffness_diagonal()
            pre = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1), 0) * mask
            res = cg_solve(
                lambda u: ops.assemble(ops.stiffness_apply(u)) * mask,
                b, ops.dot, precond=pre, tol=1e-10, max_iterations=500,
            )
            err = ops.norm(res.x - ue * mask) / ops.norm(ue)
            return res.iterations, err

        serial = run_spmd(1, body)[0]
        par = run_spmd(4, body)[0]
        assert serial[0] == par[0]          # identical iteration counts
        assert par[1] < 1e-4

    def test_periodic_neumann_poisson(self):
        """The all-Neumann problem converges with nullspace projection."""
        L = 2 * np.pi
        mesh = BoxMesh((2, 2, 2), ((0, 0, 0), (L, L, L)), order=6,
                       periodic=(True, True, True))
        ops = SEMOperators(mesh, SerialCommunicator())
        x, _, _ = mesh.coords()
        pe = np.sin(x)
        b = ops.assemble(ops.mass_apply(np.sin(x)))
        diag = ops.stiffness_diagonal()
        res = cg_solve(
            lambda u: ops.assemble(ops.stiffness_apply(u)),
            b, ops.dot, precond=1.0 / diag, tol=1e-10, max_iterations=500,
            project_nullspace=ops.project_out_nullspace,
        )
        assert res.converged
        err = ops.norm(ops.project_out_nullspace(res.x - pe)) / ops.norm(pe)
        assert err < 1e-4  # discretization error of sin(x) at order 6, E=2

    def test_cg_iterations_are_allocation_free(self):
        """Warmed-up solves borrow every scratch buffer from the arena.

        The CG loop itself must not allocate per iteration: after one
        warm-up solve has populated the arena pools and the operator
        plan cache, a second solve adds zero arena misses (every borrow
        is a pool hit) and returns every buffer (outstanding == 0).
        """
        from repro.perf import get_arena

        ops = SEMOperators(BoxMesh((2, 2, 2), order=5), SerialCommunicator())
        rng = np.random.default_rng(0)
        b = ops.assemble(rng.normal(size=ops.mesh.field_shape()))
        diag = ops.stiffness_diagonal(1.0, 1.0)

        def solve():
            return cg_solve(
                lambda u: ops.assemble(ops.helmholtz_apply(u, 1.0, 1.0)),
                b, ops.dot, precond=1.0 / diag, tol=1e-12, max_iterations=40,
            )

        solve()  # warm the arena pools and plan cache
        arena = get_arena()
        misses_before = arena.misses
        res = solve()
        assert res.iterations > 5  # the loop actually ran
        assert arena.misses == misses_before  # zero fresh allocations
        assert arena.outstanding == 0  # every borrow released


class TestResidualProjection:
    """The pressure solve's start: an A-orthonormal basis of the last
    solutions, on the masked (Dirichlet) and the nullspace-projected
    (periodic) Poisson operator."""

    L = ResidualProjection.L

    @staticmethod
    def _poisson(comm, periodic):
        mesh = BoxMesh((2, 2, 2), order=4, periodic=(periodic,) * 3,
                       rank=comm.rank, size=comm.size)
        ops = SEMOperators(mesh, comm)
        mask = (np.ones(mesh.field_shape(), dtype=bool) if periodic
                else ~mesh.boundary_union(list(BoundaryTag)))
        project = ops.project_out_nullspace if periodic else None

        def apply_op(u):
            return ops.assemble(ops.stiffness_apply(u)) * mask

        def field(seed):
            """A continuous, masked (mean-free when periodic) field."""
            rng = np.random.default_rng([seed, comm.rank])
            f = ops.continuize(rng.normal(size=mesh.field_shape())) * mask
            return f if project is None else project(f)

        return ops, apply_op, field, project

    def _gram(self, ops, apply_op, proj):
        X = proj.basis[: proj.count]
        return np.array([[ops.dot(xi, apply_op(xj)) for xj in X] for xi in X])

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("ranks", [1, 2])
    def test_basis_is_a_orthonormal_before_and_after_the_rollover(
        self, periodic, ranks
    ):
        def body(comm):
            ops, apply_op, field, project = self._poisson(comm, periodic)
            proj = ResidualProjection(ops)
            counts, errors = [], []
            for k in range(self.L + 3):
                proj.update(field(k), apply_op, project)
                counts.append(proj.count)
                errors.append(np.abs(self._gram(ops, apply_op, proj)
                                     - np.eye(proj.count)).max())
            return counts, max(errors)

        for counts, error in run_spmd(ranks, body):
            assert counts == [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3]
            assert error < 1e-10

    @pytest.mark.parametrize("periodic", [False, True])
    def test_rhs_in_the_span_of_earlier_solutions_takes_no_iteration(
        self, periodic
    ):
        ops, apply_op, field, project = self._poisson(
            SerialCommunicator(), periodic)
        proj = ResidualProjection(ops)
        xs = [field(k) for k in range(3)]
        for x in xs:
            proj.update(x, apply_op, project)
        x_true = 0.5 * xs[0] - 2.0 * xs[1] + 3.0 * xs[2]
        b = apply_op(x_true)
        guess = proj.guess(b, out=np.empty_like(b))
        res = cg_solve(apply_op, b, ops.dot, x0=guess, tol=1e-8,
                       project_nullspace=project)
        assert res.converged and res.iterations == 0
        assert ops.norm(res.x - x_true) <= 1e-8 * ops.norm(x_true)
        cold = cg_solve(apply_op, b, ops.dot, tol=1e-8,
                        project_nullspace=project)
        assert cold.iterations > 5

    def test_empty_basis_offers_no_guess(self):
        ops, apply_op, field, _ = self._poisson(SerialCommunicator(), False)
        proj = ResidualProjection(ops)
        assert proj.guess(apply_op(field(0)), out=np.empty(proj.basis.shape[1:])) is None

    def test_a_solution_already_in_the_span_is_not_added(self):
        ops, apply_op, field, _ = self._poisson(SerialCommunicator(), False)
        proj = ResidualProjection(ops)
        x = field(0)
        proj.update(x, apply_op)
        proj.update(2.0 * x, apply_op)
        assert proj.count == 1

    def test_a_projected_guess_worse_than_zero_is_still_dropped(self):
        """A basis built for A projects b onto the solution of A, which
        is 3x the solution of the 3A solved here: its residual is
        2 ||b||, so CG drops it and iterates exactly like a cold start."""
        ops, apply_op, field, _ = self._poisson(SerialCommunicator(), False)
        proj = ResidualProjection(ops)
        x = field(0)
        proj.update(x, apply_op)
        b = apply_op(x)

        def apply_3a(u):
            return 3.0 * apply_op(u)

        guess = proj.guess(b, out=np.empty_like(b))
        warm = cg_solve(apply_3a, b, ops.dot, x0=guess, tol=1e-8)
        cold = cg_solve(apply_3a, b, ops.dot, tol=1e-8)
        assert warm.initial_residual == cold.initial_residual == ops.norm(b)
        assert warm.iterations == cold.iterations
        np.testing.assert_array_equal(warm.x, cold.x)


class TestResampling:
    def test_reproduces_polynomials_exactly(self):
        mesh = BoxMesh((2, 2, 2), order=4)
        x, y, z = mesh.coords()
        f = x**3 + 2 * y**2 * z
        res = resample_field(mesh, f, samples=5)
        # compare against the polynomial evaluated at the sample points
        blocks = local_blocks(mesh, f, samples=5)
        sp = [h / 5 for h in mesh.elem_sizes]
        for (ox, oy, oz), block in blocks:
            for k in range(5):
                for j in range(5):
                    for i in range(5):
                        px = (ox + i + 0.5) * sp[0]
                        py = (oy + j + 0.5) * sp[1]
                        pz = (oz + k + 0.5) * sp[2]
                        assert block[k, j, i] == pytest.approx(
                            px**3 + 2 * py**2 * pz, abs=1e-10
                        )

    def test_grid_dims(self):
        mesh = BoxMesh((2, 3, 4), order=3)
        assert grid_dims(mesh, 2) == (4, 6, 8)

    def test_assembled_grid_covers_domain(self):
        mesh = BoxMesh((2, 2, 1), order=2)
        f = np.ones(mesh.field_shape())
        grid = assemble_global_grid(mesh, local_blocks(mesh, f, 3), 3)
        assert grid.shape == (3, 6, 6)
        np.testing.assert_array_equal(grid, 1.0)

    def test_partitioned_blocks_fill_disjoint_regions(self):
        shape, order, s = (2, 2, 1), 2, 2

        def body(comm):
            mesh = BoxMesh(shape, order=order, rank=comm.rank, size=comm.size)
            f = np.full(mesh.field_shape(), float(comm.rank + 1))
            return local_blocks(mesh, f, s)

        results = run_spmd(2, body)
        full_mesh = BoxMesh(shape, order=order)
        grid = assemble_global_grid(full_mesh, results[0] + results[1], s, fill=0.0)
        assert (grid == 0).sum() == 0  # fully covered
        rounded = set(np.round(np.unique(grid), 9))
        assert rounded == {1.0, 2.0}

    def test_shape_mismatch_raises(self):
        mesh = BoxMesh((2, 1, 1), order=2)
        with pytest.raises(ValueError):
            resample_field(mesh, np.zeros((1, 3, 3, 3)), 2)
