"""The pressure solve's two-level preconditioner (Jacobi + vertex coarse grid).

Clock-free: every check is an algebraic identity or an iteration count.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nekrs.solver as solver_module
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import pebble_bed_case
from repro.parallel import SerialCommunicator, run_spmd
from repro.perf.arena import get_arena
from repro.sem import BoundaryTag, BoxMesh, SEMOperators, cg_solve
from repro.sem.coarse import CoarseGrid

SHAPE, ORDER = (3, 2, 2), 4


def _problem(comm, faces=(), shape=SHAPE, order=ORDER, periodic=(False,) * 3,
             partition="slab"):
    """(ops, mask, CoarseGrid) of the Laplacian with homogeneous
    Dirichlet values on `faces`."""
    mesh = BoxMesh(shape, order=order, periodic=periodic, rank=comm.rank,
                   size=comm.size, partition=partition)
    ops = SEMOperators(mesh, comm)
    mask = ~mesh.boundary_union(faces)
    return ops, mask, CoarseGrid(ops, mask, mask / ops.stiffness_diagonal())


def _apply(ops, mask):
    return lambda f: ops.assemble(ops.stiffness_apply(f)) * mask


def _hat_functions(mesh):
    """Dense trilinear vertex basis at the local GLL nodes, (n, nc),
    from the node coordinates alone (non-periodic meshes)."""
    columns = []
    axes = [np.linspace(mesh.extent.lo[d], mesh.extent.hi[d], mesh.shape[d] + 1)
            for d in range(3)]
    for zc in axes[2]:
        for yc in axes[1]:
            for xc in axes[0]:
                hat = np.ones(mesh.field_shape())
                for coord, centre, h in zip(mesh.coords(), (xc, yc, zc), mesh.elem_sizes):
                    hat *= np.clip(1.0 - np.abs(coord - centre) / h, 0.0, None)
                columns.append(hat.ravel())
    return np.stack(columns, axis=1)


class TestGalerkinMatrix:
    def test_equals_brute_force_pt_a_p(self):
        ops, mask, grid = _problem(SerialCommunicator(), [BoundaryTag.XMAX])
        P = _hat_functions(ops.mesh) * mask.reshape(-1, 1)
        apply_op = _apply(ops, mask)
        AP = np.stack(
            [apply_op(col.reshape(mask.shape)).ravel() for col in P.T], axis=1
        )
        brute = P.T @ (ops.gs.inv_multiplicity.reshape(-1, 1) * AP)
        a_c = grid._galerkin_matrix(ops)
        assert a_c.shape == (grid.nc, grid.nc) == (36, 36)
        np.testing.assert_allclose(a_c, brute, rtol=0, atol=1e-12 * np.abs(brute).max())

    @pytest.mark.parametrize("partition", ["slab", "morton"])
    @pytest.mark.parametrize("periodic", [(False,) * 3, (True, True, False)])
    def test_same_matrix_on_1_2_4_ranks(self, partition, periodic):
        faces = [] if periodic[0] else [BoundaryTag.ZMAX]

        def body(comm):
            ops, _, grid = _problem(comm, faces, periodic=periodic,
                                       partition=partition)
            return grid._galerkin_matrix(ops)

        serial = body(SerialCommunicator())
        for ranks in (2, 4):
            for a_c in run_spmd(ranks, body):
                np.testing.assert_allclose(
                    a_c, serial, rtol=0, atol=1e-12 * np.abs(serial).max()
                )


CASES = {
    "dirichlet_face": dict(faces=[BoundaryTag.ZMAX]),
    "all_neumann": dict(),
    "rbc_periodic_xy": dict(shape=(4, 4, 2), periodic=(True, True, False)),
    "order1_dirichlet": dict(order=1, faces=[BoundaryTag.XMIN]),
    "order1_neumann": dict(order=1),
}


def check_preconditioner(ops, mask, grid, rng):
    """One invariant checker for every shape: M is symmetric positive
    definite under the assembled dot product on masked fields."""
    u, v = (ops.continuize(rng.normal(size=mask.shape)) * mask for _ in range(2))
    Mu, Mv = grid(u, np.empty_like(u)), grid(v, np.empty_like(v))
    assert ops.dot(u, Mu) > 0 and ops.dot(v, Mv) > 0
    assert ops.dot(u, Mv) == pytest.approx(ops.dot(Mu, v), rel=1e-10)
    # continuous, and zero on the Dirichlet nodes
    np.testing.assert_allclose(ops.continuize(Mu), Mu, atol=1e-12 * np.abs(Mu).max())
    assert not Mu[~mask].any()


class TestPreconditionerIsSPD:
    @pytest.mark.parametrize("name", CASES)
    def test_symmetric_positive(self, name, rng):
        ops, mask, grid = _problem(SerialCommunicator(), **CASES[name])
        check_preconditioner(ops, mask, grid, rng)

    @pytest.mark.parametrize("name", ["dirichlet_face", "rbc_periodic_xy"])
    def test_symmetric_positive_on_3_ranks(self, name):
        def body(comm):
            ops, mask, grid = _problem(comm, **CASES[name])
            check_preconditioner(ops, mask, grid, np.random.default_rng(comm.rank))

        run_spmd(3, body)

    @pytest.mark.parametrize("name", ["all_neumann", "rbc_periodic_xy", "order1_neumann"])
    def test_unpinned_operator_has_nullity_one(self, name):
        """Constants are the one null vector of A_c; the regularisation
        moves that eigenvalue and nothing else."""
        ops, _, grid = _problem(SerialCommunicator(), **CASES[name])
        a_c = grid._galerkin_matrix(ops)
        w = np.ones(grid.nc)
        shift = a_c @ w
        np.testing.assert_allclose(shift, shift[0] * w, rtol=1e-10)
        assert np.linalg.eigvalsh(a_c).min() > 0
        Q = np.eye(grid.nc) - np.outer(w, w) / grid.nc
        eig = np.linalg.eigvalsh(Q @ a_c @ Q)
        assert (eig < 1e-10 * eig.max()).sum() == 1

    def test_fully_masked_vertices_are_pinned(self):
        ops, _, grid = _problem(SerialCommunicator(), **CASES["order1_dirichlet"])
        a_c = grid._galerkin_matrix(ops)
        on_face = np.unique(grid.ids[ops.mesh.boundary_nodes(BoundaryTag.XMIN).ravel()])
        assert len(on_face) == 9
        np.testing.assert_array_equal(a_c[on_face][:, on_face], np.eye(9))
        assert np.linalg.eigvalsh(a_c).min() > 0


def _pebble_solver():
    case = pebble_bed_case(num_pebbles=5, elements_per_unit=4, order=5,
                           dt=1e-3, viscosity=5e-2)
    return NekRSSolver(case, SerialCommunicator())


class TestPebbleMesh:
    def test_a_third_of_jacobis_iterations_same_solution(self, monkeypatch):
        solver = _pebble_solver()
        captured = {}

        def recording_cg(apply_op, b, dot, **kw):
            if isinstance(kw.get("precond"), CoarseGrid):   # the pressure solve
                captured.update(apply_op=apply_op, b=b.copy(), dot=dot, **kw)
            return cg_solve(apply_op, b, dot, **kw)

        monkeypatch.setattr(solver_module, "cg_solve", recording_cg)
        solver.run(2)
        grid = captured.pop("precond")
        assert isinstance(grid, CoarseGrid) and grid.nc == 175
        captured["x0"] = None
        tol = captured["tol"]
        two_level = cg_solve(precond=grid, **captured)
        jacobi = cg_solve(precond=grid.jacobi, **captured)
        assert two_level.converged and jacobi.converged
        assert jacobi.iterations > 100
        assert two_level.iterations <= jacobi.iterations / 3
        norm = solver.ops.norm
        assert norm(two_level.x - jacobi.x) <= 10 * tol * norm(jacobi.x)

    def test_arena_is_warm_after_the_first_step(self):
        solver = _pebble_solver()
        solver.step()
        misses = get_arena().misses
        for _ in range(3):
            solver.step()
            assert get_arena().misses == misses
