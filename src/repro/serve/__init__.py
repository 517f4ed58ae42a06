"""``repro.serve`` — the live in situ visualization service.

The paper's pipeline renders frames to disk; this package turns it
into a *service*: the Catalyst adaptor publishes each composited frame
(PNG bytes + step/time metadata) into a :class:`ServeMesh` hub, which
stores it once in its :class:`FrameStore` and hands it to its one
:class:`SessionPump`; the pump's thread fans it out to every connected
client with per-client rate limiting and drop-to-latest backpressure
— slow clients skip frames, they never stall the simulation (the
consumer-side analog of the SST ``Discard`` policy).  One server for
many viewers, as in ISAAC.  A :class:`SteeringBus` carries client
commands (pause/resume/stop, contour value, colormap, camera orbit)
back into the run, applied collectively at step boundaries.  Two
transports speak to the hub: a deterministic in-process loopback and a
dependency-free ``asyncio`` HTTP server (MJPEG-style multipart PNG
streams, JSON status, APNG replay of the history ring).

Layering::

    CatalystAnalysisAdaptor --publisher--> ServeMesh
                                             |  FrameStore (history,
                                             |   interning, backfill)
                                             |  O(1) inbox append
                                           SessionPump (one thread)
                                             |
                                           MeshSession x N
                                             |
         SteeringEndpoint <-- SteeringBus <--+-- LoopbackClient
                 |                           +-- HttpFrameServer
         RenderPipeline params                      (asyncio)

Fan-out runs on the pump thread, so ``publish`` returning does not
mean the frame is queued for every client yet: ``ServeMesh.settle()``
is the one synchronisation point that does, and ``close()`` settles
first.  ``ServeMesh(start=False)`` runs no thread at all — ``settle``
then services the pump on the caller's thread (deterministic tests).

Run it with ``python -m repro serve``; its cost is measured by the
``serve_fanout`` workload of ``benchmarks/e2e``.  See
``docs/serving.md``.
"""

from repro.serve.framestore import Frame, FrameStore
from repro.serve.mesh import HubFull, ServeMesh
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
    "Frame",
    "FrameStore",
    "HubFull",
    "MeshSession",
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
