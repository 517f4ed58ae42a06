"""ADIOS2-style I/O and streaming.

The paper's in transit workflow uses ADIOS2 2.9.1 with the SST
(Sustainable Staging Transport) engine: simulation ranks *put*
variables each step; a separate endpoint application *gets* them over
the network, decoupling visualization resources from simulation
resources.  This package reproduces the part of it the coupling uses:

- writer engines driven with ``begin_step / put / end_step / close``;
- an **SST** broker with one bounded in-process queue per writer rank
  and ADIOS-style ``QueueLimit`` / ``QueueFullPolicy`` (Block =
  backpressure, Discard = drop oldest) semantics, consumed by the
  endpoint fleet (:mod:`repro.fleet`);
- a **BPFile** engine writing BP-marshaled step files to a directory,
  and its reader for file-staged replay;
- BP marshaling itself (:mod:`repro.adios.marshal`): a compact,
  deterministic binary encoding of named typed arrays + step metadata.

Transported byte counts are metered so the machine model can replay
the stream volume on the JUWELS Booster interconnect at paper scale.
"""

from repro.adios.marshal import marshal_step, unmarshal_step, StepPayload
from repro.adios.engine import (
    Engine,
    SSTBroker,
    SSTWriterEngine,
    BPFileWriterEngine,
    BPFileReaderEngine,
    EndOfStream,
    StepStatus,
    StreamStats,
)
from repro.faults.errors import (
    CorruptPayloadError,
    EndpointDownError,
    StreamTimeout,
    TransportError,
)

__all__ = [
    "Engine",
    "SSTBroker",
    "SSTWriterEngine",
    "BPFileWriterEngine",
    "BPFileReaderEngine",
    "EndOfStream",
    "StepStatus",
    "StreamStats",
    "TransportError",
    "StreamTimeout",
    "EndpointDownError",
    "CorruptPayloadError",
    "marshal_step",
    "unmarshal_step",
    "StepPayload",
]
