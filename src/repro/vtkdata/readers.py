"""Readers for the VTK XML files this stack writes.

The endpoint's VTU/VTM output is only trustworthy if it parses back;
these readers load the subset of the VTK XML formats the writers emit
(ascii and appended-raw encodings, linear hexahedra, point/cell data)
so tests can round-trip every artifact.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from repro.vtkdata.arrays import CELL, POINT, DataArray
from repro.vtkdata.dataset import UnstructuredGrid

_NP_TYPES = {
    "Float64": np.float64,
    "Float32": np.float32,
    "Int64": np.int64,
    "Int32": np.int32,
    "UInt8": np.uint8,
}


class VTKReadError(ValueError):
    """Malformed or unsupported VTK XML content."""


def _split_document(raw: bytes) -> tuple[ET.Element, bytes | None]:
    """Parse the XML part; return (root, appended raw bytes or None).

    Appended-raw sections are not valid XML, so the document is split
    at the AppendedData marker before parsing.
    """
    marker = raw.find(b'<AppendedData encoding="raw">')
    if marker < 0:
        return ET.fromstring(raw), None
    underscore = raw.index(b"_", marker)
    end = raw.rindex(b"</AppendedData>")
    appended = raw[underscore + 1 : end].rstrip(b"\n")
    xml_text = raw[:marker] + b"</VTKFile>"
    return ET.fromstring(xml_text), appended


def _read_data_array(
    elem: ET.Element, appended: bytes | None
) -> tuple[str, np.ndarray]:
    name = elem.get("Name", "")
    dtype = _NP_TYPES.get(elem.get("type", ""))
    if dtype is None:
        raise VTKReadError(f"unsupported DataArray type {elem.get('type')!r}")
    ncomp = int(elem.get("NumberOfComponents", "1"))
    fmt = elem.get("format", "ascii")
    if fmt == "ascii":
        text = elem.text or ""
        flat = np.array(text.split(), dtype=dtype)
    elif fmt == "appended":
        if appended is None:
            raise VTKReadError("appended DataArray but no AppendedData section")
        offset = int(elem.get("offset", "0"))
        (nbytes,) = np.frombuffer(appended[offset : offset + 4], dtype=np.uint32)
        start = offset + 4
        flat = np.frombuffer(appended[start : start + int(nbytes)], dtype=dtype).copy()
    else:
        raise VTKReadError(f"unsupported DataArray format {fmt!r}")
    if ncomp > 1:
        flat = flat.reshape(-1, ncomp)
    return name, flat


def _attach_field_data(piece: ET.Element, target, appended: bytes | None) -> None:
    for section, assoc in (("PointData", POINT), ("CellData", CELL)):
        sec = piece.find(section)
        if sec is None:
            continue
        for da in sec.findall("DataArray"):
            name, values = _read_data_array(da, appended)
            target.add_array(DataArray(name, values, association=assoc))


def read_vtu(path) -> UnstructuredGrid:
    """Read a .vtu written by :func:`repro.vtkdata.writers.write_vtu`."""
    raw = Path(path).read_bytes()
    root, appended = _split_document(raw)
    if root.get("type") != "UnstructuredGrid":
        raise VTKReadError(f"not an UnstructuredGrid file: {path}")
    piece = root.find("UnstructuredGrid/Piece")
    if piece is None:
        raise VTKReadError("missing <Piece>")
    points_elem = piece.find("Points/DataArray")
    _, points = _read_data_array(points_elem, appended)
    cells = {}
    for da in piece.find("Cells").findall("DataArray"):
        name, values = _read_data_array(da, appended)
        cells[name] = values
    if not (cells["types"] == 12).all():
        raise VTKReadError("reader supports linear hexahedra only")
    connectivity = cells["connectivity"].reshape(-1, 8)
    grid = UnstructuredGrid(points.reshape(-1, 3), connectivity)
    _attach_field_data(piece, grid, appended)
    expected_pts = int(piece.get("NumberOfPoints", grid.num_points))
    if grid.num_points != expected_pts:
        raise VTKReadError(
            f"point count mismatch: header {expected_pts}, data {grid.num_points}"
        )
    return grid


def read_vtm(path) -> list[str | None]:
    """Read a .vtm multiblock index: per-block file names (None = empty)."""
    root = ET.fromstring(Path(path).read_bytes())
    if root.get("type") != "vtkMultiBlockDataSet":
        raise VTKReadError(f"not a vtkMultiBlockDataSet file: {path}")
    entries: list[str | None] = []
    for ds in root.find("vtkMultiBlockDataSet").findall("DataSet"):
        index = int(ds.get("index"))
        while len(entries) <= index:
            entries.append(None)
        entries[index] = ds.get("file")
    return entries
