"""Tests for repro.util.sizes."""

import pytest

from repro.util.sizes import GIB, KIB, MIB, TIB, format_bytes


class TestFormatBytes:
    def test_zero(self):
        assert format_bytes(0) == "0 B"

    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(2048) == "2.00 KiB"

    def test_mib(self):
        assert format_bytes(6.5 * MIB) == "6.50 MiB"

    def test_gib(self):
        assert format_bytes(19 * GIB) == "19.00 GiB"

    def test_tib(self):
        assert format_bytes(1.5 * TIB) == "1.50 TiB"

    def test_precision(self):
        assert format_bytes(1536) == "1.50 KiB"

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_boundary_exactly_one_kib(self):
        assert format_bytes(KIB) == "1.00 KiB"

    def test_just_under_kib_is_bytes(self):
        assert format_bytes(KIB - 1) == "1023 B"
