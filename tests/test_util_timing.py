"""Tests for repro.util.timing."""

import math

import numpy as np
import pytest

from repro.util.timing import TimingStats, interleaved_pairs


class TestTimingStats:
    def test_empty(self):
        s = TimingStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.std == 0.0

    def test_empty_min_max_are_zero(self):
        # regression: these used to report +inf/-inf sentinels
        s = TimingStats()
        assert s.min == 0.0
        assert s.max == 0.0

    def test_merge_of_empties_stays_zero(self):
        a, b = TimingStats(), TimingStats()
        a.merge(b)
        assert a.min == 0.0
        assert a.max == 0.0
        a.add(3.0)
        a.merge(TimingStats())
        assert a.min == 3.0
        assert a.max == 3.0

    def test_single_sample(self):
        s = TimingStats()
        s.add(2.5)
        assert s.count == 1
        assert s.mean == 2.5
        assert s.min == 2.5
        assert s.max == 2.5
        assert s.variance == 0.0

    def test_matches_numpy(self):
        samples = [0.1, 0.5, 0.9, 1.7, 0.3]
        s = TimingStats()
        for x in samples:
            s.add(x)
        assert s.mean == pytest.approx(np.mean(samples))
        assert s.std == pytest.approx(np.std(samples, ddof=1))
        assert s.total == pytest.approx(sum(samples))

    def test_merge_matches_single_stream(self):
        a_samples = [1.0, 2.0, 3.0]
        b_samples = [10.0, 20.0]
        a, b, ref = TimingStats(), TimingStats(), TimingStats()
        for x in a_samples:
            a.add(x)
            ref.add(x)
        for x in b_samples:
            b.add(x)
            ref.add(x)
        a.merge(b)
        assert a.count == ref.count
        assert a.mean == pytest.approx(ref.mean)
        assert a.variance == pytest.approx(ref.variance)
        assert a.min == ref.min and a.max == ref.max

    def test_merge_into_empty(self):
        a, b = TimingStats(), TimingStats()
        b.add(4.0)
        a.merge(b)
        assert a.count == 1 and a.mean == 4.0

    def test_merge_empty_other(self):
        a, b = TimingStats(), TimingStats()
        a.add(1.0)
        a.merge(b)
        assert a.count == 1

    def test_as_dict_keys(self):
        s = TimingStats()
        s.add(1.0)
        d = s.as_dict()
        assert set(d) == {"count", "total", "mean", "min", "max", "std"}


class TestInterleavedPairs:
    def test_alternates_and_prefers_self_reported_seconds(self):
        order = []

        def first():
            order.append("a")
            return 2.0  # self-measured seconds win over the wall clock

        def second():
            order.append("b")  # returns None: timed here

        pairs = interleaved_pairs(first, second, 3)
        assert order == ["a", "b"] * 3
        assert [a for a, _ in pairs] == [2.0] * 3
        assert all(0.0 <= b < 1.0 for _, b in pairs)
