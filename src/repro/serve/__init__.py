"""``repro.serve`` — the live in situ visualization service.

The paper's pipeline renders frames to disk; this package turns it
into a *service*: the Catalyst adaptor publishes each composited frame
(PNG bytes + step/time metadata) into a :class:`ServeMesh`, which
stores it once and pushes it to K :class:`RelayHub` shards; each
relay's :class:`SessionPump` fans it out to its share of the connected
clients with per-client rate limiting and drop-to-latest backpressure
— slow clients skip frames, they never stall the simulation (the
consumer-side analog of the SST ``Discard`` policy).  A workstation
viewer is the ``relays=1`` case of the same code.  A
:class:`SteeringBus` carries client commands (pause/resume/stop,
contour value, colormap, camera orbit) back into the run, applied
collectively at step boundaries.  Two transports speak to the mesh: a
deterministic in-process loopback and a dependency-free ``asyncio``
HTTP server (MJPEG-style multipart PNG streams, JSON status, APNG
replay of the history ring).

Layering::

    CatalystAnalysisAdaptor --publisher--> ServeMesh (FrameStore)
                                             |  O(K) inbox appends
                                   RelayHub x K (HashRing placement,
                                     |           lease liveness)
                                   SessionPump + EdgeCache
                                     |
                                   MeshSession x N
                                     |
         SteeringEndpoint <-- SteeringBus <--+-- LoopbackClient
                 |                           +-- HttpFrameServer
         RenderPipeline params                      (asyncio)

Fan-out runs on the relay threads, so ``publish`` returning does not
mean the frame is queued for every client yet: ``ServeMesh.settle()``
is the one synchronisation point that does, and ``close()`` settles
first.  ``ServeMesh(start=False)`` runs no threads at all — ``settle``
then services the relays on the caller's thread (deterministic tests).

Load-test it with :mod:`repro.bench.serving`; run it with
``python -m repro serve [--relays K]``.  See ``docs/serving.md``.
"""

from repro.serve.framestore import EdgeCache, Frame, FrameStore
from repro.serve.mesh import HubFull, RelayHub, ServeMesh
from repro.serve.pump import MeshSession, SessionPump, SessionStats
from repro.serve.service import attach_serving
from repro.serve.steering import (
    STEER_KINDS,
    SteerCommand,
    SteeringBus,
    SteeringEndpoint,
)
from repro.serve.transport import HttpFrameServer, LoopbackClient

__all__ = [
    "EdgeCache",
    "Frame",
    "FrameStore",
    "HubFull",
    "MeshSession",
    "RelayHub",
    "ServeMesh",
    "SessionPump",
    "SessionStats",
    "SteerCommand",
    "SteeringBus",
    "SteeringEndpoint",
    "STEER_KINDS",
    "LoopbackClient",
    "HttpFrameServer",
    "attach_serving",
]
