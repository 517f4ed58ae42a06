"""Byte-size constants and formatting.

Storage accounting is central to the paper's evaluation (6.5 MB of
Catalyst images vs 19 GB of checkpoints), so the whole stack reports
byte counts through these helpers for consistent, lossless formatting.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024**2
GIB = 1024**3
TIB = 1024**4

_UNITS = [
    ("TiB", TIB),
    ("GiB", GIB),
    ("MiB", MIB),
    ("KiB", KIB),
    ("B", 1),
]


def format_bytes(n: float) -> str:
    """Format a byte count using binary units.

    >>> format_bytes(6.5 * MIB)
    '6.50 MiB'
    >>> format_bytes(0)
    '0 B'
    """
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    if n == 0:
        return "0 B"
    for unit, factor in _UNITS:
        if n >= factor:
            value = n / factor
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.2f} {unit}"
    return f"{n:.2f} B"
