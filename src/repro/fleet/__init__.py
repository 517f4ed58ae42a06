"""repro.fleet: the endpoint side of in transit visualization.

The paper's in transit topology fixes a 4:1 sim:endpoint node split at
launch.  Here that split is the default :class:`FleetConfig` — every
pooled endpoint active from the start, membership fixed, autoscaler
off — of a fleet that can also be *elastic*: endpoints join and leave
mid-run, producer streams rebalance over a consistent-hash ring with
bounded disruption, idle endpoints steal queued render steps, and an
autoscaler driven by the transport's queue-depth gauges picks the
sim:endpoint ratio inside a 2:1..16:1 clamp.

Pieces (all in-process, mirroring the repo's threaded-SPMD transport):

- :class:`~repro.fleet.ring.HashRing` — deterministic stream routing;
- :class:`~repro.fleet.membership.FleetMembership` — heartbeat leases
  over mailbox queues; unplanned loss is detected by whichever peer
  polls next, no monitor thread (a member busy on a task, or resting
  until the next event, is alive: the polling peer keeps its lease);
- :class:`~repro.fleet.work.WorkQueues` — per-endpoint render queues
  with deterministic work stealing;
- :class:`~repro.fleet.autoscaler.Autoscaler` — queue-depth policy;
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

from repro.fleet.autoscaler import Autoscaler, AutoscalerConfig
from repro.fleet.coordinator import Directive, FleetCoordinator, RecoveryRecord
from repro.fleet.endpoint import AnalysisSink, EndpointReport, FleetEndpoint
from repro.fleet.membership import EndpointState, FleetMembership
from repro.fleet.ring import HashRing
from repro.fleet.work import RenderTask, WorkQueues


@dataclass(frozen=True)
class FleetConfig:
    """Tuning knobs for the in transit endpoint fleet.

    The defaults are the paper's static N:1 split.
    ``initial_active=None`` starts every pooled endpoint active;
    setting it lower parks the remainder as the autoscaler's reserve.
    ``autoscale=False`` keeps membership fixed unless faults or an
    explicit ``depart`` change it.
    """

    lease_timeout: float = 0.25     # seconds before a silent member is dead
    initial_active: int | None = None
    autoscale: bool = False
    autoscaler: AutoscalerConfig | None = None
    autoscale_every: int = 8        # polls between autoscaler observations
    seed: int = 0

    def __post_init__(self):
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be > 0")
        if self.initial_active is not None and self.initial_active < 1:
            raise ValueError("initial_active must be >= 1")


__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
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
