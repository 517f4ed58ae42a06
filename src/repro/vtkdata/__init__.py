"""VTK-like data model and XML file writers.

SENSEI relays simulation data "aligned with the VTK data model"; the
Catalyst endpoint's Checkpointing mode writes VTU files.  This package
implements the pieces of that model the workflow touches:

- :class:`DataArray` — a named, typed tuple-component array,
- :class:`UnstructuredGrid` — points + hexahedral cells with point and
  cell data (what the SEM mesh maps to),
- :class:`ImageData` — uniform grids (what resampled render input maps
  to),
- :class:`MultiBlockDataSet` — one block per rank, SENSEI's standard
  distributed layout,

plus standards-conformant writers for ``.vtu`` and ``.vtm``
XML files (ASCII or appended raw binary encodings readable by
ParaView).
"""

from repro.vtkdata.arrays import DataArray
from repro.vtkdata.dataset import ImageData, UnstructuredGrid, MultiBlockDataSet
from repro.vtkdata.writers import write_vtu, write_vtm
from repro.vtkdata.readers import read_vtu, read_vtm, VTKReadError

__all__ = [
    "DataArray",
    "ImageData",
    "UnstructuredGrid",
    "MultiBlockDataSet",
    "write_vtu",
    "write_vtm",
    "read_vtu",
    "read_vtm",
    "VTKReadError",
]
