"""Tests for Table rendering and RNG plumbing."""

import numpy as np
import pytest

from repro.util.rng import make_rng
from repro.util.tables import Table


class TestTable:
    def test_render_contains_title_and_cells(self):
        t = Table(["ranks", "time [s]"], title="Fig. 2")
        t.add_row([280, 123.456])
        out = t.render()
        assert "Fig. 2" in out
        assert "ranks" in out
        assert "280" in out
        assert "123.456" in out

    def test_float_formatting(self):
        t = Table(["x"], float_format="{:.1f}")
        t.add_row([1.26])
        assert "1.3" in t.render()

    def test_row_length_mismatch_raises(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_as_dicts(self):
        t = Table(["a", "b"])
        t.add_row([1, 2])
        assert t.as_dicts() == [{"a": 1, "b": 2}]

    def test_empty_table_renders(self):
        t = Table(["only"])
        out = t.render()
        assert "only" in out

    def test_column_alignment(self):
        t = Table(["name", "v"])
        t.add_row(["a-very-long-name", 1])
        t.add_row(["b", 22])
        lines = t.render().splitlines()
        # all data lines equal width
        assert len(lines[-1]) == len(lines[-2])


class TestMakeRng:
    def test_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            make_rng(-1)

    def test_returns_generator(self):
        assert isinstance(make_rng(0), np.random.Generator)
