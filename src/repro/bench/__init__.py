"""Benchmark harness: regenerate every figure/table of the evaluation.

Two-level design (see DESIGN.md section 5):

1. **measure** — run the real instrumented stack at laptop scale
   (a few threaded ranks, a few timesteps) and extract a
   :class:`repro.insitu.instrumentation.RunProfile`: per-step compute
   seconds, bytes per channel, memory per rank.
2. **replay** — feed the profile and a machine spec
   (:data:`repro.machine.POLARIS` / :data:`repro.machine.JUWELS_BOOSTER`)
   to first-order cost models to predict the paper-scale figures.

Experiment drivers (one per paper artifact):

- :mod:`repro.bench.fig2` — pb146 time-to-solution, 280/560/1120 ranks
- :mod:`repro.bench.fig3` — pb146 aggregate memory high-water mark
- :mod:`repro.bench.storage` — 6.5 MB images vs 19 GB checkpoints
- :mod:`repro.bench.fig5` — RBC in transit weak scaling, time/step
- :mod:`repro.bench.fig6` — RBC in transit memory per node
- :mod:`repro.bench.ablations` — in situ frequency, SST queue, ratio

Each driver has a ``run(...) -> Table`` and is executable as
``python -m repro.bench.figN``.  Wall-clock cost of whole workflows
(including the in transit, fault-tolerant and serving paths) is
measured in one place, the ``benchmarks/e2e`` harness; fault, fleet
and serving behaviour is pinned by deterministic tests.
"""

from repro.bench.measure import measure_insitu_profile, measure_intransit_profiles
from repro.bench.replay import (
    PredictedRun,
    predict_insitu_run,
    predict_intransit_step,
)

__all__ = [
    "measure_insitu_profile",
    "measure_intransit_profiles",
    "PredictedRun",
    "predict_insitu_run",
    "predict_intransit_step",
]
