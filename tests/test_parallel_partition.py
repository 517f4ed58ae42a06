"""Tests for block partitioning."""

import pytest

from repro.parallel.partition import block_range


class TestBlockRange:
    def test_even_split(self):
        assert [block_range(9, 3, r) for r in range(3)] == [(0, 3), (3, 6), (6, 9)]

    def test_remainder_goes_to_first_ranks(self):
        assert [block_range(10, 3, r) for r in range(3)] == [(0, 4), (4, 7), (7, 10)]

    def test_more_ranks_than_items(self):
        ranges = [block_range(2, 4, r) for r in range(4)]
        assert ranges == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_items(self):
        assert block_range(0, 3, 1) == (0, 0)

    def test_single_rank(self):
        assert block_range(7, 1, 0) == (0, 7)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            block_range(5, 2, 2)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            block_range(5, 0, 0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            block_range(-1, 2, 0)


def block_partition(n, size):
    """All ranks' [lo, hi) ranges."""
    return [block_range(n, size, r) for r in range(size)]


class TestBlockPartition:
    @pytest.mark.parametrize("n,size", [(10, 3), (7, 7), (5, 8), (100, 9), (0, 2)])
    def test_tiles_exactly(self, n, size):
        ranges = block_partition(n, size)
        covered = []
        for lo, hi in ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(n))

    def test_balanced(self):
        ranges = block_partition(100, 7)
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
