"""VTK XML file writers (.vtu, .vtm).

The in transit endpoint's "Checkpointing" mode writes the received
fields as VTU files (Section 4.2), so these writers produce real bytes
on a real filesystem — which is what the storage/overhead accounting
measures.  Files follow the VTK XML formats: ``ascii`` encoding for
debuggability or ``appended`` raw binary (with the little-endian
UInt32 size headers ParaView expects) for realistic sizes.
"""

from __future__ import annotations

import io
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np

from repro.vtkdata.arrays import DataArray
from repro.vtkdata.dataset import VTK_HEXAHEDRON, UnstructuredGrid

_VTK_TYPES = {
    np.dtype(np.float64): "Float64",
    np.dtype(np.float32): "Float32",
    np.dtype(np.int64): "Int64",
    np.dtype(np.int32): "Int32",
    np.dtype(np.uint8): "UInt8",
}


def _vtk_type(arr: np.ndarray) -> str:
    try:
        return _VTK_TYPES[arr.dtype]
    except KeyError:
        raise TypeError(f"unsupported dtype for VTK output: {arr.dtype}") from None


class _Appended:
    """Accumulates appended-mode binary blocks and their offsets."""

    def __init__(self) -> None:
        self.buf = io.BytesIO()

    def add(self, arr: np.ndarray) -> int:
        offset = self.buf.tell()
        raw = np.ascontiguousarray(arr).tobytes()
        self.buf.write(np.uint32(len(raw)).tobytes())
        self.buf.write(raw)
        return offset


def _data_array_xml(
    name: str,
    arr: np.ndarray,
    encoding: str,
    appended: _Appended | None,
) -> str:
    ncomp = 1 if arr.ndim == 1 else arr.shape[1]
    attrs = f'type="{_vtk_type(arr)}" Name={quoteattr(name)}'
    if ncomp > 1:
        attrs += f' NumberOfComponents="{ncomp}"'
    if encoding == "ascii":
        flat = np.asarray(arr).ravel()
        if flat.dtype.kind == "f":
            body = " ".join(f"{v:.9g}" for v in flat)
        else:
            body = " ".join(str(v) for v in flat)
        return f'<DataArray {attrs} format="ascii">{body}</DataArray>'
    assert appended is not None
    offset = appended.add(arr)
    return f'<DataArray {attrs} format="appended" offset="{offset}"/>'


def _field_data_xml(
    point_data: dict[str, DataArray],
    cell_data: dict[str, DataArray],
    encoding: str,
    appended: _Appended | None,
) -> list[str]:
    parts = []
    parts.append("<PointData>")
    for name, array in point_data.items():
        parts.append(_data_array_xml(name, array.values, encoding, appended))
    parts.append("</PointData>")
    parts.append("<CellData>")
    for name, array in cell_data.items():
        parts.append(_data_array_xml(name, array.values, encoding, appended))
    parts.append("</CellData>")
    return parts


def _write_vtkfile(path: Path, file_type: str, body: list[str], appended: _Appended) -> int:
    parts = ['<?xml version="1.0"?>']
    parts.append(
        f'<VTKFile type="{file_type}" version="1.0" '
        'byte_order="LittleEndian" header_type="UInt32">'
    )
    parts.extend(body)
    raw = appended.buf.getvalue()
    footer = []
    if raw:
        footer.append('<AppendedData encoding="raw">')
    parts.extend(footer)
    head = "\n".join(parts).encode()
    tail = b"\n</AppendedData>\n</VTKFile>\n" if raw else b"\n</VTKFile>\n"
    payload = head + (b"\n_" + raw if raw else b"") + tail
    path.write_bytes(payload)
    return len(payload)


def write_vtu(path, grid: UnstructuredGrid, encoding: str = "appended") -> int:
    """Write an UnstructuredGrid as .vtu; returns bytes written."""
    if encoding not in ("ascii", "appended"):
        raise ValueError(f"encoding must be ascii|appended, got {encoding}")
    path = Path(path)
    appended = _Appended()
    n_pts, n_cells = grid.num_points, grid.num_cells
    connectivity = grid.cells.astype(np.int64)
    offsets = (np.arange(1, n_cells + 1, dtype=np.int64)) * 8
    types = np.full(n_cells, VTK_HEXAHEDRON, dtype=np.uint8)

    body = ["<UnstructuredGrid>"]
    body.append(f'<Piece NumberOfPoints="{n_pts}" NumberOfCells="{n_cells}">')
    body.extend(_field_data_xml(grid.point_data, grid.cell_data, encoding, appended))
    body.append("<Points>")
    body.append(_data_array_xml("Points", grid.points, encoding, appended))
    body.append("</Points>")
    body.append("<Cells>")
    body.append(_data_array_xml("connectivity", connectivity.ravel(), encoding, appended))
    body.append(_data_array_xml("offsets", offsets, encoding, appended))
    body.append(_data_array_xml("types", types, encoding, appended))
    body.append("</Cells>")
    body.append("</Piece>")
    body.append("</UnstructuredGrid>")
    return _write_vtkfile(path, "UnstructuredGrid", body, appended)


def write_vtm(path, block_files: list[str | None]) -> int:
    """Write a .vtm multiblock index referencing per-block files.

    `block_files[i]` is the (relative) filename of block i or None for
    an empty block.
    """
    path = Path(path)
    parts = ['<?xml version="1.0"?>']
    parts.append(
        '<VTKFile type="vtkMultiBlockDataSet" version="1.0" '
        'byte_order="LittleEndian">'
    )
    parts.append("<vtkMultiBlockDataSet>")
    for i, name in enumerate(block_files):
        if name is None:
            parts.append(f'<DataSet index="{i}"/>')
        else:
            parts.append(f'<DataSet index="{i}" file={quoteattr(str(name))}/>')
    parts.append("</vtkMultiBlockDataSet>")
    parts.append("</VTKFile>")
    payload = "\n".join(parts).encode() + b"\n"
    path.write_bytes(payload)
    return len(payload)
