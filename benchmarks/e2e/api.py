"""Every ``repro`` name the benchmark uses — the only file importing ``repro``.

A later simplicity PR may not edit the benchmark, so these public names
must survive it (or keep an alias): they are the program's surface as
the benchmark sees it.  The entry points wrapped under ``--trace`` are a
second such list, in ``trace.ENTRYPOINTS``.

Attributes read on results and objects, beyond the constructors below:
``StepReport.{step,time,pressure_iterations,velocity_iterations}``,
``NekRSSolver.{step,kinetic_energy,local_gridpoints,comm,device}``,
``Device.transfers.{d2h_bytes,h2d_bytes}``, ``comm.{rank,barrier,meter}``,
``TrafficMeter.total_bytes``, ``Bridge.{update,finalize,analysis,adaptor}``,
``ConfigurableAnalysis.adaptors``, ``CatalystAnalysisAdaptor.{images_written,
image_bytes}``, ``NekDataAdaptor.staging_bytes_peak``,
``CaseDefinition.forcing`` (a dataclass field, replaced with
``dataclasses.replace``; the solver calls it at every time level),
``InTransitRunner.{run,last_broker}``, ``SSTBroker.stats.{steps_put,
bytes_put,steps_discarded}``, ``InTransitResult.{role,steps,images,
mean_step_seconds,stream_bytes,staging_bytes,files_bytes,extra}``,
``ServeMesh.{publish,connect,disconnect,relay_replay,stats,close}``,
``MeshSession.{take,drain,stats}``, ``Frame.{step,data}``,
``WorkspaceArena.stats``.
"""

from repro.codec import CodecSpec
from repro.insitu import Bridge, InTransitRunner
from repro.nekrs import NekRSSolver
from repro.nekrs.cases import pebble_bed_case, weak_scaled_rbc_case
from repro.occa import Device
from repro.parallel import run_spmd
from repro.perf.arena import get_arena
from repro.serve import ServeMesh
from repro.util.png import decode_png, encode_png

__all__ = [
    "Bridge",
    "CodecSpec",
    "Device",
    "InTransitRunner",
    "NekRSSolver",
    "ServeMesh",
    "decode_png",
    "encode_png",
    "get_arena",
    "pebble_bed_case",
    "run_spmd",
    "weak_scaled_rbc_case",
]
