"""Stock AnalysisAdaptors and their XML factory registry.

Each factory has signature ``factory(comm, attributes, output_dir)``
where `attributes` are the remaining XML attributes of the
``<analysis>`` element.  Types mirror SENSEI's stock analyses plus the
two back ends the paper uses (catalyst, adios/SST).
"""

from __future__ import annotations

from pathlib import Path

from repro.parallel.comm import Communicator
from repro.sensei.analyses.histogram import HistogramAnalysis
from repro.sensei.analyses.posthoc_io import VTKPosthocIO
from repro.sensei.analyses.catalyst_adaptor import CatalystAnalysisAdaptor
from repro.sensei.analyses.adios_adaptor import ADIOSAnalysisAdaptor
from repro.sensei.analyses.particles import ParticleTracer
from repro.sensei.analyses.steering import DivergenceGuard, SteadyStateDetector

__all__ = [
    "HistogramAnalysis",
    "VTKPosthocIO",
    "CatalystAnalysisAdaptor",
    "ADIOSAnalysisAdaptor",
    "ParticleTracer",
    "DivergenceGuard",
    "SteadyStateDetector",
    "default_factories",
]


def default_factories() -> dict:
    """Registry mapping XML type names to adaptor factories."""
    return {
        "histogram": _make_histogram,
        "PosthocIO": _make_posthoc,
        "catalyst": _make_catalyst,
        "adios": _make_adios,
        "particles": _make_particles,
        "divergence_guard": _make_divergence_guard,
        "steady_state": _make_steady_state,
        "compressed_io": _make_compressed_io,
    }


def _make_histogram(comm: Communicator, attrs: dict, output_dir: Path):
    return HistogramAnalysis(
        comm,
        mesh_name=attrs.get("mesh", "mesh"),
        array_name=attrs.get("array", "pressure"),
        bins=int(attrs.get("bins", "32")),
        output_dir=output_dir if attrs.get("file", "1") not in ("0", "no") else None,
    )


def _make_posthoc(comm: Communicator, attrs: dict, output_dir: Path):
    arrays = attrs.get("arrays", "pressure,velocity_x,velocity_y,velocity_z")
    return VTKPosthocIO(
        comm,
        output_dir=Path(attrs.get("output", str(output_dir))),
        mesh_name=attrs.get("mesh", "mesh"),
        arrays=tuple(a.strip() for a in arrays.split(",") if a.strip()),
        encoding=attrs.get("encoding", "appended"),
    )


def _make_catalyst(comm: Communicator, attrs: dict, output_dir: Path):
    return CatalystAnalysisAdaptor.from_xml_attributes(comm, attrs, output_dir)


def _make_adios(comm: Communicator, attrs: dict, output_dir: Path):
    return ADIOSAnalysisAdaptor.from_xml_attributes(comm, attrs)


def _make_particles(comm: Communicator, attrs: dict, output_dir: Path):
    return ParticleTracer(
        comm,
        num_particles=int(attrs.get("count", "64")),
        mesh_name=attrs.get("mesh", "uniform"),
        seed=int(attrs.get("seed", "7")),
        output_dir=output_dir if attrs.get("file", "1") not in ("0", "no") else None,
    )


def _make_divergence_guard(comm: Communicator, attrs: dict, output_dir: Path):
    return DivergenceGuard(
        comm,
        array_name=attrs.get("array", "velocity_magnitude"),
        limit=float(attrs.get("limit", "1e6")),
        mesh_name=attrs.get("mesh", "mesh"),
    )


def _make_compressed_io(comm: Communicator, attrs: dict, output_dir: Path):
    """Error-bounded field dumps: ``delta-rle`` under an absolute bound,
    written as deflated ``dump.step*.rank*.bp`` files, each read back
    with ``unmarshal_step(unpack_bp_file(...))`` (:mod:`repro.adios.engine`).
    Geometry goes out once and exact."""
    from repro.adios.engine import BPFileWriterEngine
    from repro.codec import CodecSpec

    arrays = tuple(
        a.strip() for a in attrs.get("arrays", "pressure").split(",") if a.strip()
    )
    bound = attrs.get("error_bound", "1e-4")
    engine = BPFileWriterEngine(
        "dump", attrs.get("output", str(output_dir)), writer_rank=comm.rank,
        codec=CodecSpec.from_cli("delta-rle", f"abs:{bound}"),
    )
    return ADIOSAnalysisAdaptor(
        comm, engine, mesh_name=attrs.get("mesh", "mesh"), arrays=arrays
    )


def _make_steady_state(comm: Communicator, attrs: dict, output_dir: Path):
    return SteadyStateDetector(
        comm,
        array_name=attrs.get("array", "velocity_magnitude"),
        tolerance=float(attrs.get("tolerance", "1e-6")),
        patience=int(attrs.get("patience", "3")),
        mesh_name=attrs.get("mesh", "mesh"),
    )
