"""Wiring: attach the serving layer to a configured SENSEI analysis.

``attach_serving`` is the one-call integration point the CLI and the
tests use: given a rank's :class:`ConfigurableAnalysis`, it

1. sets the mesh's ``publish`` as the ``publisher`` hook on every
   Catalyst adaptor (rank 0 is the only rank whose render returns
   outputs, so only rank 0 actually publishes), and
2. prepends a :class:`SteeringEndpoint` bound to the shared bus and
   this rank's live pipelines, so client commands apply at the *next*
   step boundary — before that step's render, on every rank.

Every rank of an SPMD run must call it with the *same* hub and bus
objects (they are shared-memory singletons under the threaded
runtime, exactly like the SST broker).
"""

from __future__ import annotations

from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor
from repro.sensei.configurable import AnalysisSpec, ConfigurableAnalysis
from repro.serve.mesh import ServeMesh
from repro.serve.steering import SteeringBus, SteeringEndpoint

__all__ = ["attach_serving"]

_STEERING_SPEC = AnalysisSpec(
    type="steering", frequency=1, enabled=True, attributes={}
)


def attach_serving(
    analysis: ConfigurableAnalysis,
    hub: ServeMesh,
    bus: SteeringBus | None = None,
    comm=None,
) -> SteeringEndpoint | None:
    """Wire `hub` (and optionally `bus`) into a configured analysis.

    Returns the rank's :class:`SteeringEndpoint` (None when no bus).
    """
    catalysts = [
        adaptor
        for _spec, adaptor in analysis.adaptors
        if isinstance(adaptor, CatalystAnalysisAdaptor)
    ]
    for adaptor in catalysts:
        adaptor.publisher = hub.publish
    if bus is None:
        return None
    endpoint = SteeringEndpoint(
        comm if comm is not None else analysis.comm,
        bus,
        pipelines=[a.pipeline for a in catalysts if a.pipeline is not None],
    )
    # steering runs first so commands shape the same step's render
    analysis.adaptors.insert(0, (_STEERING_SPEC, endpoint))
    return endpoint
