"""Tests for geometric factors, gather-scatter, and SEM operators."""

import numpy as np
import pytest

from repro.parallel import SerialCommunicator, run_spmd
from repro.sem import (
    BoundaryTag, BoxMesh, GatherScatter, GeometricFactors, SEMOperators,
)


def make_ops(shape=(2, 2, 2), order=4, extent=((0, 0, 0), (1, 1, 1)), **kw):
    comm = SerialCommunicator()
    mesh = BoxMesh(shape, extent, order=order, **kw)
    return SEMOperators(mesh, comm)


class TestGeometricFactors:
    def test_mass_sums_to_volume(self):
        mesh = BoxMesh((2, 3, 1), ((0, 0, 0), (2.0, 3.0, 0.5)), order=4)
        geom = GeometricFactors(mesh)
        assert geom.mass.sum() == pytest.approx(3.0)
        assert geom.total_volume_local == pytest.approx(3.0)

    def test_metric_terms(self):
        mesh = BoxMesh((2, 1, 1), ((0, 0, 0), (1.0, 2.0, 4.0)), order=2)
        geom = GeometricFactors(mesh)
        # element sizes: 0.5, 2, 4 -> rx = 2/h
        assert geom.rx.flat[0] == pytest.approx(4.0)
        assert geom.sy.flat[0] == pytest.approx(1.0)
        assert geom.tz.flat[0] == pytest.approx(0.5)

    def test_jacobian_constant(self):
        mesh = BoxMesh((2, 2, 2), order=3)
        geom = GeometricFactors(mesh)
        assert np.allclose(geom.jacobian, geom.jacobian.flat[0])


class TestGatherScatter:
    def test_sums_shared_nodes(self):
        mesh = BoxMesh((2, 1, 1), order=2)
        gs = GatherScatter(mesh.global_ids, SerialCommunicator())
        ones = np.ones(mesh.field_shape())
        out = gs(ones)
        # interface nodes have multiplicity 2
        np.testing.assert_array_equal(out[0, :, :, -1], 2.0)
        np.testing.assert_array_equal(out[0, :, :, 0], 1.0)

    def test_multiplicity(self):
        mesh = BoxMesh((2, 2, 1), order=2)
        gs = GatherScatter(mesh.global_ids, SerialCommunicator())
        # the shared edge between 4 elements would have multiplicity 4
        assert gs.multiplicity.max() == 4.0
        assert gs.multiplicity.min() == 1.0

    def test_average_makes_single_valued(self, rng):
        mesh = BoxMesh((2, 2, 2), order=3)
        gs = GatherScatter(mesh.global_ids, SerialCommunicator())
        f = rng.normal(size=mesh.field_shape())
        avg = gs.average(f)
        # after averaging, another gs-average is idempotent
        np.testing.assert_allclose(gs.average(avg), avg, atol=1e-13)

    def test_shape_mismatch_raises(self):
        mesh = BoxMesh((2, 1, 1), order=2)
        gs = GatherScatter(mesh.global_ids, SerialCommunicator())
        with pytest.raises(ValueError):
            gs(np.zeros((1, 3, 3, 3)))

    def test_parallel_matches_serial(self, rng):
        """gs on 3 ranks must reproduce the single-rank result."""
        shape, order = (2, 2, 3), 3
        full_mesh = BoxMesh(shape, order=order)
        full = rng.normal(size=full_mesh.field_shape())
        gs_serial = GatherScatter(full_mesh.global_ids, SerialCommunicator())
        expected = gs_serial(full)

        def body(comm):
            mesh = BoxMesh(shape, order=order, rank=comm.rank, size=comm.size)
            gs = GatherScatter(mesh.global_ids, comm)
            local = full[mesh.elem_ids[0] : mesh.elem_ids[-1] + 1]
            return gs(local)

        results = run_spmd(3, body)
        stacked = np.concatenate(results, axis=0)
        np.testing.assert_allclose(stacked, expected, atol=1e-12)

    def test_assembled_norm_counts_nodes_once(self):
        mesh = BoxMesh((2, 1, 1), order=2)
        gs = GatherScatter(mesh.global_ids, SerialCommunicator())
        ones = np.ones(mesh.field_shape())
        # each copy weighs 1/multiplicity, so every node counts once
        assert (ones * gs.inv_multiplicity).sum() == pytest.approx(
            mesh.num_global_nodes
        )


class TestMaskedGatherScatter:
    """``gs(f, out, index=gs.masked_index(mask))`` is ``gs(f) * mask``
    in one gather, written into `out`, on every rank of a partition."""

    @staticmethod
    def _masked_and_reference(comm, periodic):
        mesh = BoxMesh((3, 2, 2), order=3, periodic=periodic,
                       rank=comm.rank, size=comm.size)
        gs = GatherScatter(mesh.global_ids, comm)
        rng = np.random.default_rng(comm.rank)
        f = rng.normal(size=mesh.field_shape())
        out = []
        for mask in (~mesh.boundary_union([BoundaryTag.ZMIN, BoundaryTag.ZMAX]),
                     rng.random(f.shape) < 0.5):
            buf = np.full(f.shape, np.nan)
            got = gs(f, out=buf, index=gs.masked_index(mask))
            assert got is buf
            out.append((got, gs(f) * mask))
        return out

    @pytest.mark.parametrize(
        "periodic", [(False, False, False), (True, True, False)],
        ids=["walls", "periodic"],
    )
    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_equals_gs_times_mask(self, ranks, periodic):
        # the slab partition of the 12 elements puts rank interfaces on
        # 2 and 3 ranks, and the periodic wrap joins ranks as well
        def body(comm):
            return self._masked_and_reference(comm, periodic)

        for pairs in run_spmd(ranks, body):
            for got, expected in pairs:
                np.testing.assert_array_equal(got, expected)


class TestOperators:
    def test_volume(self):
        ops = make_ops(extent=((0, 0, 0), (2.0, 1.0, 3.0)))
        assert ops.volume == pytest.approx(6.0)

    def test_integrate_polynomial(self):
        ops = make_ops(order=5)
        x, y, z = ops.mesh.coords()
        # int over unit cube of x^2 y = 1/3 * 1/2 = 1/6
        assert ops.integrate(x**2 * y) == pytest.approx(1.0 / 6.0)

    def test_mean_and_projection(self):
        ops = make_ops()
        x, _, _ = ops.mesh.coords()
        f = x + 3.0
        assert ops.mean(f) == pytest.approx(3.5)
        g = ops.project_out_mean(f)
        assert ops.mean(g) == pytest.approx(0.0, abs=1e-12)

    def test_project_out_nullspace_kills_constants(self):
        ops = make_ops()
        ones = np.ones(ops.mesh.field_shape())
        out = ops.project_out_nullspace(5.0 * ones)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_nullspace_projection_idempotent(self, rng):
        ops = make_ops()
        f = rng.normal(size=ops.mesh.field_shape())
        p1 = ops.project_out_nullspace(f)
        np.testing.assert_allclose(ops.project_out_nullspace(p1), p1, atol=1e-12)

    def test_grad_of_linear(self):
        ops = make_ops(extent=((0, 0, 0), (2.0, 1.0, 1.0)))
        x, y, z = ops.mesh.coords()
        fx, fy, fz = ops.grad(2 * x + 3 * y - z)
        np.testing.assert_allclose(fx, 2.0, atol=1e-10)
        np.testing.assert_allclose(fy, 3.0, atol=1e-10)
        np.testing.assert_allclose(fz, -1.0, atol=1e-10)

    def test_div_of_linear_field(self):
        ops = make_ops()
        x, y, z = ops.mesh.coords()
        div = ops.div(x, 2 * y, -3 * z)
        np.testing.assert_allclose(div, 0.0, atol=1e-10)

    def test_div_grad_consistent_with_stiffness(self, rng):
        """<A f, g> == integral grad f . grad g (weak form identity)."""
        ops = make_ops(order=5)
        x, y, z = ops.mesh.coords()
        f = np.sin(np.pi * x) * y
        g = np.cos(np.pi * y) * z * x
        fx, fy, fz = ops.grad(f)
        gx, gy, gz = ops.grad(g)
        weak = (f * ops.gs.inv_multiplicity * ops.assemble(ops.stiffness_apply(g))).sum()
        strong = ops.integrate(fx * gx + fy * gy + fz * gz)
        assert weak == pytest.approx(strong, rel=1e-10)

    def test_stiffness_annihilates_constants(self):
        ops = make_ops()
        out = ops.stiffness_apply(np.ones(ops.mesh.field_shape()))
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_helmholtz_scalar_h0(self, rng):
        ops = make_ops(order=3)
        f = rng.normal(size=ops.mesh.field_shape())
        out = ops.helmholtz_apply(f, 2.0, 5.0)
        expected = 2.0 * ops.stiffness_apply(f) + 5.0 * ops.mass_apply(f)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_helmholtz_field_h0(self, rng):
        ops = make_ops(order=3)
        f = rng.normal(size=ops.mesh.field_shape())
        chi = rng.uniform(0, 10, size=ops.mesh.field_shape())
        out = ops.helmholtz_apply(f, 1.0, chi)
        expected = ops.stiffness_apply(f) + chi * ops.mass_apply(f)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_stiffness_diagonal_matches_operator(self):
        """diag entries equal e_i^T A e_i on the assembled operator."""
        ops = make_ops(shape=(2, 1, 1), order=2)
        diag = ops.stiffness_diagonal()
        ids = ops.mesh.global_ids.ravel()
        uniq, inv = np.unique(ids, return_inverse=True)
        shape = ops.mesh.field_shape()
        for gid_idx in [0, len(uniq) // 2, len(uniq) - 1]:
            e = np.zeros(len(uniq))
            e[gid_idx] = 1.0
            ef = e[inv].reshape(shape)
            Ae = ops.assemble(ops.stiffness_apply(ef))
            expected = (Ae * ef * ops.gs.inv_multiplicity).sum()
            actual = diag.ravel()[np.nonzero(ef.ravel())[0][0]]
            assert actual == pytest.approx(expected, rel=1e-10)

    def test_convect_linear(self):
        ops = make_ops()
        x, y, z = ops.mesh.coords()
        ones = np.ones_like(x)
        # (u.grad) f with u=(1,0,0), f=x -> 1
        out = ops.convect(x, ones, 0 * ones, 0 * ones)
        np.testing.assert_allclose(out, 1.0, atol=1e-10)

    def test_dot_symmetric_positive(self, rng):
        ops = make_ops(order=3)
        f = rng.normal(size=ops.mesh.field_shape())
        g = rng.normal(size=ops.mesh.field_shape())
        assert ops.dot(f, g) == pytest.approx(ops.dot(g, f))
        assert ops.dot(f, f) > 0

    def test_norm_zero(self):
        ops = make_ops(order=2)
        assert ops.norm(np.zeros(ops.mesh.field_shape())) == 0.0

    def test_parallel_integrate_matches_serial(self):
        shape, order = (2, 2, 2), 3

        def body(comm):
            mesh = BoxMesh(shape, order=order, rank=comm.rank, size=comm.size)
            ops = SEMOperators(mesh, comm)
            x, y, z = mesh.coords()
            return ops.integrate(x * y + z)

        serial = run_spmd(1, body)[0]
        parallel = run_spmd(4, body)
        assert all(p == pytest.approx(serial) for p in parallel)
