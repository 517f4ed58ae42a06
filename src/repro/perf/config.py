"""Per-thread switch between optimized and reference hot paths.

The optimized kernels (plan-cached contractions, workspace arenas, the
batched rasterizer, batched contour and codec) are on by default.  The
reference implementations are kept callable behind :func:`naive_mode`
for two reasons: the equivalence tests prove the optimized paths match
them, and the perf gate measures honest before/after numbers from the
same build instead of trusting a historical figure.

The flag is thread-local so one rank of the threaded SPMD runtime can
be flipped without disturbing the others (and so the gate can measure
the naive path while tier-1 tests run optimized elsewhere).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["enabled", "naive_mode", "set_enabled"]

class _PerfLocal(threading.local):
    # class attribute = per-thread default; plain attribute reads are
    # measurably cheaper than getattr(..., default) on the hot paths
    enabled = True


_tls = _PerfLocal()


def enabled() -> bool:
    """True when the optimized hot paths are active for this thread."""
    return _tls.enabled


def set_enabled(value: bool) -> None:
    _tls.enabled = bool(value)


@contextmanager
def naive_mode():
    """Run the body on the reference (pre-optimization) code paths."""
    previous = enabled()
    _tls.enabled = False
    try:
        yield
    finally:
        _tls.enabled = previous
