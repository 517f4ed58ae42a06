"""repro.fleet: the endpoint side of in transit visualization.

The paper's in transit topology fixes a 4:1 sim:endpoint node split at
launch, and so does the fleet: every pooled endpoint is active from the
start, and membership changes only when a member fails or leaves at the
end of the run.  Producer streams are placed over a consistent-hash ring,
so a loss moves only the lost member's streams; idle endpoints steal
queued render steps.

Pieces (all in-process, mirroring the repo's threaded-SPMD transport):

- :class:`~repro.fleet.ring.HashRing` — deterministic stream routing;
- :class:`~repro.fleet.membership.FleetMembership` — heartbeat leases
  over mailbox queues; unplanned loss is detected by whichever peer
  polls next, no monitor thread (a member busy on a task, or resting
  until the next event, is alive: the polling peer keeps its lease);
- :class:`~repro.fleet.work.WorkQueues` — per-endpoint render queues
  with deterministic work stealing;
- :class:`~repro.fleet.coordinator.FleetCoordinator` — ties the above
  into the poll/commit protocol endpoints drive;
- :class:`~repro.fleet.endpoint.FleetEndpoint` — one endpoint rank's
  loop with its private single-rank SENSEI sink.

Entry point: :class:`repro.insitu.intransit.InTransitRunner`, whose
every endpoint rank is a :class:`FleetEndpoint`; pass
``fleet=FleetConfig(...)`` to change the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.coordinator import Directive, FleetCoordinator, RecoveryRecord
from repro.fleet.endpoint import AnalysisSink, EndpointReport, FleetEndpoint
from repro.fleet.membership import EndpointState, FleetMembership
from repro.fleet.ring import HashRing
from repro.fleet.work import RenderTask, WorkQueues


@dataclass(frozen=True)
class FleetConfig:
    """Tuning knobs for the in transit endpoint fleet."""

    lease_timeout: float = 0.25     # seconds before a silent member is dead

    def __post_init__(self):
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")


__all__ = [
    "AnalysisSink",
    "Directive",
    "EndpointReport",
    "EndpointState",
    "FleetConfig",
    "FleetCoordinator",
    "FleetEndpoint",
    "FleetMembership",
    "HashRing",
    "RecoveryRecord",
    "RenderTask",
    "WorkQueues",
]
