"""NekDataAdaptor: the simulation-side DataAdaptor (paper Listing 2).

Serves two meshes:

``mesh``
    The SEM grid as an unstructured mesh: every GLL node is a point,
    every order^3 sub-cell of every element a linear hexahedron — the
    standard way Nek data is presented to VTK-model consumers.
``uniform``
    Per-element uniform resamplings (spectral interpolation) packaged
    as ImageData fragments, which renderers and slice filters assemble
    into a global volume.

Field arrays live on the OCCA device: ``add_array`` triggers the
device->host copy (metered by the device's transfer ledger) exactly
once per field per step — the GPU->CPU movement the paper identifies
as the cost of coupling VTK-model tools to a GPU code.
"""

from __future__ import annotations

import numpy as np

from repro.nekrs.diagnostics import q_criterion, vorticity_magnitude
from repro.nekrs.solver import NekRSSolver
from repro.perf.arena import WorkspaceArena
from repro.sem.interp import grid_dims, resample_field
from repro.sensei.data_adaptor import DataAdaptor
from repro.sensei.metadata import ArrayMetadata, MeshMetadata
from repro.vtkdata.arrays import DataArray
from repro.vtkdata.dataset import ImageData, MultiBlockDataSet, UnstructuredGrid


def _subcell_connectivity(num_elements: int, nq: int) -> np.ndarray:
    """(E * (nq-1)^3, 8) hexes over the GLL lattice of each element."""
    n = nq - 1
    k, j, i = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    k, j, i = k.ravel(), j.ravel(), i.ravel()

    def node(kk, jj, ii):
        return (kk * nq + jj) * nq + ii

    corners = np.stack(
        [
            node(k, j, i),
            node(k, j, i + 1),
            node(k, j + 1, i + 1),
            node(k, j + 1, i),
            node(k + 1, j, i),
            node(k + 1, j, i + 1),
            node(k + 1, j + 1, i + 1),
            node(k + 1, j + 1, i),
        ],
        axis=1,
    )
    per_elem = nq**3
    offsets = (np.arange(num_elements) * per_elem)[:, None, None]
    return (corners[None, :, :] + offsets).reshape(-1, 8)


_VELOCITY = ("velocity_x", "velocity_y", "velocity_z")

#: scalar fields derived from the velocity components, ``fn(ops, u, v,
#: w)`` — evaluated on host mirrors or on device views alike
_DERIVED = {
    "velocity_magnitude": lambda ops, u, v, w: np.sqrt(u * u + v * v + w * w),
    "vorticity_magnitude": vorticity_magnitude,
    "q_criterion": q_criterion,
}


class NekDataAdaptor(DataAdaptor):
    MESH = "mesh"
    UNIFORM = "uniform"

    def __init__(self, solver: NekRSSolver, samples_per_element: int | None = None):
        super().__init__(solver.comm)
        self.solver = solver
        mesh = solver.mesh
        self.samples = samples_per_element or mesh.nq
        if self.samples < 1:
            raise ValueError("samples_per_element must be >= 1")

        # static unstructured structure
        x, y, z = mesh.coords()
        self._points = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        self._cells = _subcell_connectivity(mesh.num_elements, mesh.nq)

        # static uniform-fragment structure
        self._frag_spacing = tuple(mesh.elem_sizes / self.samples)
        self._frag_origins = (
            mesh.elem_origins + np.asarray(self._frag_spacing) / 2.0
        )
        self._global_origin = tuple(
            np.asarray(mesh.extent.lo) + np.asarray(self._frag_spacing) / 2.0
        )
        self._global_dims = grid_dims(mesh, self.samples)

        self._host_cache: dict[str, np.ndarray] = {}
        self._resample_cache: dict[str, np.ndarray] = {}
        #: adaptor-private scratch pool for host mirrors of device
        #: fields — step-scoped borrows (released in release_data) that
        #: must not count against the shared per-thread arena
        self.scratch_arena = WorkspaceArena()
        self._host_borrowed: list[np.ndarray] = []
        # device residency: the same caches over raw views of device
        # buffers, derived and resampled fields in device-arena scratch
        self._device_scratch = solver.device.raw_view()
        self._device_cache: dict[str, np.ndarray] = {}
        self._device_resample_cache: dict[str, np.ndarray] = {}
        self._device_borrowed: list[np.ndarray] = []
        self.staging_bytes_current = 0
        self.staging_bytes_peak = 0

    # -- structure ---------------------------------------------------------
    def get_number_of_meshes(self) -> int:
        return 2

    def _array_metadata(self) -> tuple[ArrayMetadata, ...]:
        arrays = [
            ArrayMetadata(n, "point", 1)
            for n in (*self.solver.device_fields, *_DERIVED)
        ]
        arrays.append(ArrayMetadata("velocity", "point", 3))
        return tuple(arrays)

    def get_mesh_metadata(self, index: int) -> MeshMetadata:
        mesh = self.solver.mesh
        bounds = tuple(
            (lo, hi) for lo, hi in zip(mesh.extent.lo, mesh.extent.hi)
        )
        if index == 0:
            return MeshMetadata(
                name=self.MESH,
                num_blocks=self.comm.size,
                local_block_ids=(self.comm.rank,),
                num_points_local=len(self._points),
                num_cells_local=len(self._cells),
                arrays=self._array_metadata(),
                bounds=bounds,
                step=self._step,
                time=self._time,
            )
        if index == 1:
            s = self.samples
            return MeshMetadata(
                name=self.UNIFORM,
                num_blocks=mesh.num_global_elements,
                local_block_ids=tuple(int(e) for e in mesh.elem_ids),
                num_points_local=mesh.num_elements * s**3,
                num_cells_local=mesh.num_elements * max(s - 1, 1) ** 3,
                arrays=self._array_metadata(),
                bounds=bounds,
                step=self._step,
                time=self._time,
                extra={
                    "global_dims": list(self._global_dims),
                    "origin": list(self._global_origin),
                    "spacing": list(self._frag_spacing),
                    "samples": s,
                },
            )
        raise IndexError(f"mesh index {index} out of range (0..1)")

    def get_mesh(self, name: str, structure_only: bool = False) -> MultiBlockDataSet:
        mesh = self.solver.mesh
        mb = MultiBlockDataSet()
        if name == self.MESH:
            mb.set_block(self.comm.size - 1, None)  # size the block list
            if not structure_only:
                grid = UnstructuredGrid(self._points, self._cells)
                self._charge_staging(grid.points.nbytes + grid.cells.nbytes)
                mb.set_block(self.comm.rank, grid)
            return mb
        if name == self.UNIFORM:
            mb.set_block(mesh.num_global_elements - 1, None)
            if not structure_only:
                s = self.samples
                for e in range(mesh.num_elements):
                    frag = ImageData(
                        dims=(s, s, s),
                        origin=tuple(self._frag_origins[e]),
                        spacing=self._frag_spacing,
                    )
                    mb.set_block(int(mesh.elem_ids[e]), frag)
            return mb
        raise KeyError(f"unknown mesh {name!r} (have: mesh, uniform)")

    # -- data --------------------------------------------------------------
    def _host_field(self, name: str) -> np.ndarray:
        """Host mirror of a device field, one D2H copy per step."""
        cached = self._host_cache.get(name)
        if cached is not None:
            return cached
        if name in _DERIVED:
            out = _DERIVED[name](
                self.solver.ops, *(self._host_field(c) for c in _VELOCITY)
            )
        elif name == "velocity":
            out = np.stack(
                [self._host_field(c).ravel() for c in _VELOCITY], axis=1
            )
        else:
            try:
                device_mem = self.solver.device_fields[name]
            except KeyError:
                raise KeyError(
                    f"simulation provides no array {name!r}; have "
                    f"{sorted(self.solver.device_fields)}"
                ) from None
            # D2H lands in recycled arena scratch: the gather path's
            # steady-state loop allocates no fresh host mirrors.  The
            # pool is adaptor-private, not the shared per-thread arena:
            # these borrows live until release_data(), and callers that
            # drive add_array outside a bridge step (tools, tests) must
            # not leave the global arena's outstanding count nonzero.
            out = self.scratch_arena.borrow(device_mem.shape, device_mem.dtype)
            self._host_borrowed.append(out)
            device_mem.copy_to_host(out=out)
        self._host_cache[name] = out
        self._charge_staging(out.nbytes)
        return out

    def add_array(
        self,
        mesh: MultiBlockDataSet,
        mesh_name: str,
        association: str,
        array_name: str,
    ) -> None:
        if association != "point":
            raise ValueError("NekRS fields are point-centered")
        if mesh_name == self.MESH:
            block = mesh.get_block(self.comm.rank)
            if block is None:
                raise ValueError("mesh block missing (structure_only mesh?)")
            host = self._host_field(array_name)
            values = host if array_name == "velocity" else host.ravel()
            block.add_array(DataArray(array_name, values))
            return
        if mesh_name == self.UNIFORM:
            if array_name == "velocity":
                raise ValueError("uniform mesh serves scalar arrays only")
            res = self._resample_cache.get(array_name)
            if res is None:
                host = self._host_field(array_name)
                res = resample_field(self.solver.mesh, host, self.samples)
                self._resample_cache[array_name] = res
                self._charge_staging(res.nbytes)
            for e in range(self.solver.mesh.num_elements):
                frag = mesh.get_block(int(self.solver.mesh.elem_ids[e]))
                if frag is None:
                    raise ValueError("uniform fragment missing")
                frag.add_array(DataArray(array_name, res[e].ravel()))
            return
        raise KeyError(f"unknown mesh {mesh_name!r}")

    # -- device residency ----------------------------------------------------
    @property
    def device(self):
        """The solver's OCCA device (device-resident render path)."""
        return self.solver.device

    def _device_field(self, name: str) -> np.ndarray:
        """Raw device view of a GLL field; derived fields are computed
        into device-arena scratch — nothing crosses PCIe."""
        cached = self._device_cache.get(name)
        if cached is not None:
            return cached
        if name in _DERIVED:
            u, v, w = (self._device_field(c) for c in _VELOCITY)
            raw = self._device_scratch.borrow(u.shape, u.dtype)
            self._device_borrowed.append(raw)
            raw[...] = _DERIVED[name](self.solver.ops, u, v, w)
        else:
            try:
                raw = self.solver.device_fields[name]._raw()
            except KeyError:
                raise KeyError(
                    f"simulation provides no device array {name!r}; have "
                    f"{sorted(self.solver.device_fields)}"
                ) from None
        self._device_cache[name] = raw
        return raw

    def device_uniform_fragments(self, arrays: tuple[str, ...]):
        """Device twin of the uniform-mesh fragment walk.

        Returns ``(global_dims, global_origin, global_spacing,
        fragments)`` exactly like
        :func:`repro.sensei.analyses.catalyst_adaptor.local_uniform_fragments`,
        except every payload volume is a raw view of a device-arena
        buffer, valid until :meth:`release_data` — the resampled working
        set never leaves the device, so the transfer ledger records no
        per-field D2H for ``residency="device"``.
        """
        s = self.samples
        mesh = self.solver.mesh
        for name in arrays:
            if name not in self._device_resample_cache:
                res = self._device_scratch.borrow(
                    (mesh.num_elements, s, s, s), np.float64
                )
                self._device_borrowed.append(res)
                res[...] = resample_field(mesh, self._device_field(name), s)
                self._device_resample_cache[name] = res
        fragments = [
            (
                tuple(self._frag_origins[e]),
                (s, s, s),
                {name: self._device_resample_cache[name][e] for name in arrays},
            )
            for e in range(mesh.num_elements)
        ]
        return (
            self._global_dims,
            np.asarray(self._global_origin, dtype=float),
            np.asarray(self._frag_spacing, dtype=float),
            fragments,
        )

    def release_data(self) -> None:
        from repro.observe.session import get_telemetry

        self._host_cache.clear()
        self._resample_cache.clear()
        if self._host_borrowed:
            self.scratch_arena.release(*self._host_borrowed)
            self._host_borrowed.clear()
        self._device_cache.clear()
        self._device_resample_cache.clear()
        if self._device_borrowed:
            self._device_scratch.release(*self._device_borrowed)
            self._device_borrowed.clear()
        self.staging_bytes_current = 0
        get_telemetry().memory.observe("sensei.staging", 0)

    # -- accounting ----------------------------------------------------------
    def _charge_staging(self, nbytes: int) -> None:
        from repro.observe.session import get_telemetry

        self.staging_bytes_current += nbytes
        self.staging_bytes_peak = max(
            self.staging_bytes_peak, self.staging_bytes_current
        )
        get_telemetry().memory.observe("sensei.staging", self.staging_bytes_current)
