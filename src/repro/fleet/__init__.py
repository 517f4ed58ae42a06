"""repro.fleet: the endpoint side of in transit visualization.

The paper's in transit topology fixes a 4:1 sim:endpoint node split at
launch, and so does the fleet: every pooled endpoint is active from the
start, and membership changes only when a member fails or leaves at the
end of the run.  Each endpoint ingests the contiguous block of producer
streams the paper's static split gives it; a loss moves only the lost
member's streams, and idle endpoints steal queued render steps.

Pieces (all in-process, mirroring the repo's threaded-SPMD transport):

- :class:`~repro.fleet.membership.FleetMembership` — heartbeat leases;
  unplanned loss is detected by whichever peer polls next, no monitor
  thread (a member busy on a task, or resting until the next event, is
  alive: the polling peer keeps its lease);
- :class:`~repro.fleet.work.WorkQueues` — per-endpoint render queues
  with deterministic work stealing;
- :class:`~repro.fleet.coordinator.FleetCoordinator` — stream placement,
  step assembly and recovery, behind the poll/commit protocol endpoints
  drive;
- :class:`~repro.fleet.endpoint.FleetEndpoint` — one endpoint rank's
  loop with its private single-rank SENSEI sink.

Entry point: :class:`repro.insitu.intransit.InTransitRunner`, whose
every endpoint rank is a :class:`FleetEndpoint`.
"""

from __future__ import annotations

from repro.fleet.coordinator import Directive, FleetCoordinator, RecoveryRecord
from repro.fleet.endpoint import AnalysisSink, EndpointReport, FleetEndpoint
from repro.fleet.membership import EndpointState, FleetMembership
from repro.fleet.work import RenderTask, WorkQueues

__all__ = [
    "AnalysisSink",
    "Directive",
    "EndpointReport",
    "EndpointState",
    "FleetCoordinator",
    "FleetEndpoint",
    "FleetMembership",
    "RecoveryRecord",
    "RenderTask",
    "WorkQueues",
]
