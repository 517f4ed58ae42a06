"""Additional property-based tests: dealiasing, Morton partitioning,
compression bounds under composition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.partition import morton_encode, morton_partition
from repro.sem.dealias import dealias_points, project_back, to_fine


def dealiased_product(a, b, order, fine_count=None):
    """The L2 projection of a*b onto P_N: the product on the fine Gauss
    grid, projected back (what ``convect_dealiased`` does per term)."""
    m = fine_count or dealias_points(order)
    return project_back(to_fine(a, order, m) * to_fine(b, order, m), order, m)


class TestDealiasProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        order=st.integers(2, 6),
        seed=st.integers(0, 10**6),
    )
    def test_projection_is_idempotent_on_pn(self, order, seed):
        """to_fine/project_back round-trips any P_N field exactly."""
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(1, order + 1, order + 1, order + 1))
        out = project_back(to_fine(f, order), order)
        np.testing.assert_allclose(out, f, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(order=st.integers(2, 5), seed=st.integers(0, 10**6))
    def test_product_linearity(self, order, seed):
        """dealiased_product is bilinear: (2a, b) == 2 (a, b)."""
        rng = np.random.default_rng(seed)
        shape = (1, order + 1, order + 1, order + 1)
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        one = dealiased_product(a, b, order)
        two = dealiased_product(2.0 * a, b, order)
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(order=st.integers(2, 5), seed=st.integers(0, 10**6))
    def test_product_symmetric(self, order, seed):
        rng = np.random.default_rng(seed)
        shape = (1, order + 1, order + 1, order + 1)
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        np.testing.assert_allclose(
            dealiased_product(a, b, order),
            dealiased_product(b, a, order),
            atol=1e-9,
        )


class TestMortonProperties:
    @given(
        ex=st.integers(1, 6), ey=st.integers(1, 6), ez=st.integers(1, 6),
        size=st.integers(1, 12),
    )
    def test_partition_always_tiles(self, ex, ey, ez, size):
        parts = morton_partition((ex, ey, ez), size)
        assert len(parts) == size
        combined = sorted(np.concatenate(parts).tolist())
        assert combined == list(range(ex * ey * ez))

    @given(
        ex=st.integers(1, 6), ey=st.integers(1, 6), ez=st.integers(1, 6),
        size=st.integers(1, 12),
    )
    def test_partition_balanced(self, ex, ey, ez, size):
        sizes = [len(p) for p in morton_partition((ex, ey, ez), size)]
        assert max(sizes) - min(sizes) <= 1

    @given(
        coords=st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 200),
                      st.integers(0, 200)),
            min_size=1, max_size=50, unique=True,
        )
    )
    def test_codes_injective(self, coords):
        ix, iy, iz = (np.array(c) for c in zip(*coords))
        codes = morton_encode(ix, iy, iz)
        assert len(set(codes.tolist())) == len(coords)
