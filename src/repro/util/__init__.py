"""Shared utilities used across the repro stack."""

from repro.util.sizes import KIB, MIB, GIB, TIB, format_bytes
from repro.util.timing import TimingStats
from repro.util.tables import Table
from repro.util.rng import make_rng

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "format_bytes",
    "TimingStats",
    "Table",
    "make_rng",
]
