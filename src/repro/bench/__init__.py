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
- :mod:`repro.bench.robustness` — fault-injected in transit runs:
  endpoint crash + payload corruption, FaultLog accounting
- :mod:`repro.bench.serving` — serving-mesh fan-out load test: up to
  100k loopback viewers, backpressure, churn, relay loss, latency

Each driver has a ``run(...) -> Table`` and is executable as
``python -m repro.bench.figN``.
"""

from repro.bench.measure import measure_insitu_profile, measure_intransit_profiles
from repro.bench.replay import (
    PredictedRun,
    ReplayConfig,
    predict_insitu_run,
    predict_intransit_step,
)

__all__ = [
    "measure_insitu_profile",
    "measure_intransit_profiles",
    "PredictedRun",
    "ReplayConfig",
    "predict_insitu_run",
    "predict_intransit_step",
]
