"""repro — reproduction of *Scaling Computational Fluid Dynamics: In Situ
Visualization of NekRS using SENSEI* (Mateevitsi et al., SC 2023).

The package is organized as a stack of subsystems mirroring the paper's
software stack, each implemented from scratch in Python:

``repro.util``
    Shared utilities: timing, sizes, PNG encoding, tables, RNG plumbing.
``repro.parallel``
    In-process SPMD runtime with MPI-like communicators (serial and
    threaded back ends) standing in for MPI.
``repro.machine``
    Discrete-event performance model of leadership machines (Polaris,
    JUWELS Booster): network topology, PCIe, filesystem.
``repro.occa``
    OCCA-style device/memory/kernel abstraction with a host backend and
    a simulated-CUDA backend that accounts device<->host transfers.
``repro.sem``
    Spectral element method infrastructure: GLL quadrature, tensor
    product operators, hexahedral meshes, gather-scatter, Krylov
    solvers.
``repro.nekrs``
    The NekRS-analog incompressible Navier-Stokes solver, case files,
    checkpointing, and the paper's two science cases (pebble bed, RBC).
``repro.vtkdata``
    VTK-like data model (unstructured grids, image data, multiblock)
    plus VTU/VTI/VTM XML writers.
``repro.sensei``
    SENSEI-style in situ framework: DataAdaptor / AnalysisAdaptor,
    XML-configurable analysis, stock analyses.
``repro.catalyst``
    Catalyst-style software rendering pipeline (rasterizer, contour,
    slice, colormaps) producing real PNG images.
``repro.adios``
    ADIOS2-style I/O and streaming API with SST (in-process streaming)
    and BPFile engines.
``repro.insitu``
    The paper's contribution proper: the NekRS<->SENSEI coupling
    (DataAdaptor + bridge), in situ and in transit run orchestration,
    and overhead instrumentation.
``repro.bench``
    Experiment drivers that regenerate every figure/table of the
    paper's evaluation section.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
