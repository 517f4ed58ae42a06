"""Computational steering: let an analysis stop (or checkpoint) the run.

SENSEI's execute() returning False asks the simulation to stop; this
module provides the two standard guards every long campaign wants
in situ:

- :class:`DivergenceGuard` — stop when the solution blows up (NaN or a
  runaway norm), saving the allocation instead of burning it on a
  diverged run;
- :class:`SteadyStateDetector` — stop when the solution stops changing,
  because every further step is wasted compute.
"""

from __future__ import annotations

import numpy as np

from repro.observe.session import get_telemetry
from repro.parallel.comm import Communicator, ReduceOp
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor

#: reasons a steering guard can trip, used as the counter label
TRIP_REASONS = ("nan", "runaway_norm", "steady")


def record_trip(comm: Communicator, reason: str, step: int, **extra) -> None:
    """Record a steering trip in telemetry: an instant on every rank
    (so per-rank traces show where the decision landed) and a
    ``repro_steering_trips_<reason>_total`` counter on rank 0 only (so
    aggregated metrics count each collective decision once)."""
    if reason not in TRIP_REASONS:
        raise ValueError(f"reason must be one of {TRIP_REASONS}, got {reason!r}")
    tel = get_telemetry()
    if not tel.enabled:
        return
    tel.tracer.instant("steering.trip", reason=reason, step=step, **extra)
    if comm.is_root:
        tel.metrics.counter(
            f"repro_steering_trips_{reason}_total",
            f"Steering trips with reason {reason!r}",
        ).inc()


class DivergenceGuard(AnalysisAdaptor):
    """Request stop when max|array| exceeds a limit or turns NaN."""

    def __init__(
        self,
        comm: Communicator,
        array_name: str = "velocity_magnitude",
        limit: float = 1e6,
        mesh_name: str = "mesh",
    ):
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.comm = comm
        self.array_name = array_name
        self.limit = limit
        self.mesh_name = mesh_name
        self.tripped_at: int | None = None

    def execute(self, data: DataAdaptor) -> bool:
        mesh = data.get_mesh(self.mesh_name)
        data.add_array(mesh, self.mesh_name, "point", self.array_name)
        local_max = 0.0
        local_bad = False
        for block in mesh.local_blocks():
            vals = block.point_data[self.array_name].values
            if vals.size:
                local_bad = local_bad or not np.isfinite(vals).all()
                finite = vals[np.isfinite(vals)]
                if finite.size:
                    local_max = max(local_max, float(np.abs(finite).max()))
        worst = self.comm.allreduce(local_max, ReduceOp.MAX)
        any_bad = self.comm.allreduce(local_bad, ReduceOp.LOR)
        if any_bad or worst > self.limit:
            self.tripped_at = data.get_data_time_step()
            record_trip(
                self.comm,
                "nan" if any_bad else "runaway_norm",
                self.tripped_at,
                array=self.array_name,
                worst=worst,
            )
            return False
        return True


class SteadyStateDetector(AnalysisAdaptor):
    """Request stop when the field's change per step falls below tol.

    Tracks the relative L2 change of one array between consecutive
    invocations; `patience` consecutive below-tolerance observations
    trigger the stop (a single quiet step is not steady state).
    """

    def __init__(
        self,
        comm: Communicator,
        array_name: str = "velocity_magnitude",
        tolerance: float = 1e-6,
        patience: int = 3,
        mesh_name: str = "mesh",
    ):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.comm = comm
        self.array_name = array_name
        self.tolerance = tolerance
        self.patience = patience
        self.mesh_name = mesh_name
        self._previous: np.ndarray | None = None
        self._quiet = 0
        self.converged_at: int | None = None
        self.history: list[float] = []

    def execute(self, data: DataAdaptor) -> bool:
        mesh = data.get_mesh(self.mesh_name)
        data.add_array(mesh, self.mesh_name, "point", self.array_name)
        chunks = [
            block.point_data[self.array_name].values.ravel()
            for block in mesh.local_blocks()
        ]
        current = np.concatenate(chunks) if chunks else np.empty(0)

        if self._previous is not None and current.size == self._previous.size:
            diff2 = float(np.sum((current - self._previous) ** 2))
            norm2 = float(np.sum(self._previous**2))
            diff2 = self.comm.allreduce(diff2, ReduceOp.SUM)
            norm2 = self.comm.allreduce(norm2, ReduceOp.SUM)
            change = np.sqrt(diff2 / norm2) if norm2 > 0 else np.inf
            self.history.append(change)
            if change < self.tolerance:
                self._quiet += 1
            else:
                self._quiet = 0
            if self._quiet >= self.patience:
                self.converged_at = data.get_data_time_step()
                self._previous = current.copy()
                record_trip(
                    self.comm, "steady", self.converged_at,
                    array=self.array_name, change=change,
                )
                return False
        self._previous = current.copy()
        return True
