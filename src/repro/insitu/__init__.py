"""The NekRS <-> SENSEI coupling — the paper's contribution proper.

- :class:`NekDataAdaptor` (Listing 2): presents solver state as VTK
  model meshes — the SEM grid as an unstructured-hex mesh and a
  spectrally resampled uniform mesh — copying fields across the
  OCCA device boundary on demand and caching the host mirror per step.
- :mod:`repro.insitu.bridge` (Listing 3): the thin glue embedding
  SENSEI into the simulation: initialize / update-per-step / finalize.
- :class:`StreamedDataAdaptor`: the endpoint-side DataAdaptor that
  reconstructs meshes from ADIOS step payloads (the "SENSEI data
  consumer" of the in transit workflow).
- :class:`InTransitRunner`: splits a rank group into simulation and
  endpoint subgroups at the paper's 4:1 ratio and wires the SST stream
  between them.
- :mod:`repro.insitu.instrumentation`: run profiles (time, bytes,
  memory) that the benchmark drivers feed to the machine model.
"""

from repro.insitu.adaptor import NekDataAdaptor
from repro.insitu.bridge import Bridge
from repro.insitu.streamed import StreamedDataAdaptor
from repro.insitu.intransit import InTransitRunner, InTransitResult
from repro.insitu.instrumentation import RunProfile

__all__ = [
    "NekDataAdaptor",
    "Bridge",
    "StreamedDataAdaptor",
    "InTransitRunner",
    "InTransitResult",
    "RunProfile",
]
