"""``repro.perf`` — allocation-free hot paths.

The perf layer gives every hot kernel three things:

- a per-rank :class:`PlanCache` so tensor contractions skip per-call
  ``np.einsum_path`` planning and reuse BLAS-shaped rewrites;
- a per-rank :class:`WorkspaceArena` so the CG loop, the solver step,
  and the Catalyst gather/render path borrow scratch arrays instead of
  allocating per iteration;
- a :func:`naive_mode` switch that routes the same call sites through
  the retained reference implementations — the equivalence tests and
  the ``python -m repro bench --gate`` regression gate both depend on
  being able to run before/after from one build.

See ``docs/performance.md`` for the lifetime rules and the gate
workflow.  The gate itself lives in :mod:`repro.perf.gate` and is
imported lazily (it pulls in the solver stack).
"""

from __future__ import annotations

from repro.perf.arena import WorkspaceArena, get_arena
from repro.perf.config import enabled, naive_mode, set_enabled
from repro.perf.plans import PlanCache, get_plan_cache

__all__ = [
    "PlanCache",
    "WorkspaceArena",
    "enabled",
    "get_arena",
    "get_plan_cache",
    "naive_mode",
    "set_enabled",
]

