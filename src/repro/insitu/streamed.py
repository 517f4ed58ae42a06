"""StreamedDataAdaptor: the endpoint's view of in transit data.

The in transit endpoint is "always a SENSEI data consumer": it
receives ADIOS step payloads from its assigned writer ranks and
presents them through the same DataAdaptor interface the simulation
side uses, so *identical* analysis configurations run in situ or in
transit — the interchangeability the SENSEI design is for.

Geometry arrives once (writers send it on their first step); the
adaptor caches it per writer and reuses it for subsequent steps.
"""

from __future__ import annotations

import json

import numpy as np

from repro.adios.marshal import StepPayload
from repro.parallel.comm import Communicator
from repro.sensei.data_adaptor import DataAdaptor
from repro.sensei.metadata import ArrayMetadata, MeshMetadata
from repro.vtkdata.arrays import DataArray
from repro.vtkdata.dataset import ImageData, MultiBlockDataSet, UnstructuredGrid


class StreamedDataAdaptor(DataAdaptor):
    def __init__(self, comm: Communicator):
        super().__init__(comm)
        self._payloads: dict[int, StepPayload] = {}
        self._mesh_name = "mesh"
        self._arrays: tuple[str, ...] = ()
        self._extra: dict = {}
        self._num_blocks = 0
        #: stream steps that arrived with no payloads (all writers'
        #: payloads dropped or corrupted) and were skipped as no-ops
        self.empty_steps = 0
        # geometry cache: block index -> ('grid', points, cells) or
        # ('image', origin, spacing, dims)
        self._geometry: dict[int, tuple] = {}

    # -- feeding -----------------------------------------------------------
    def consume(self, payloads: dict[int, StepPayload]) -> bool:
        """Install the payloads of one stream step (writer -> payload).

        An empty payload dict is a degraded-but-survivable condition
        mid-stream (every writer's step was dropped or corrupted): it
        is counted and skipped — returns False so the endpoint loop
        can bypass analysis for this step instead of crashing.
        """
        if not payloads:
            self.empty_steps += 1
            return False
        self._payloads = payloads
        first = next(iter(payloads.values()))
        self._mesh_name = first.attributes.get("mesh_name", "mesh")
        self._arrays = tuple(
            a for a in first.attributes.get("arrays", "").split(",") if a
        )
        self._extra = json.loads(first.attributes.get("extra", "{}"))
        self._num_blocks = int(first.attributes.get("num_blocks", "0"))
        self.set_data_time_step(first.step)
        self.set_data_time(first.time)
        for payload in payloads.values():
            if payload.attributes.get("has_geometry") == "1":
                self._cache_geometry(payload)
        return True

    def install_geometry(self, payload: StepPayload) -> None:
        """Cache a writer's geometry from a replayed first-step payload.

        Fleet endpoints acquire streams mid-run (rebalance, steal) and
        may never see a writer's geometry-bearing first step; the
        coordinator retains that payload and replays it here before
        the first :meth:`consume` of the writer's data.
        """
        if payload.attributes.get("has_geometry") == "1":
            self._cache_geometry(payload)

    def _cache_geometry(self, payload: StepPayload) -> None:
        block_ids = payload.variables["block_ids"].astype(int)
        for index in block_ids:
            prefix = f"block{index}"
            if f"{prefix}/points" in payload.variables:
                self._geometry[int(index)] = (
                    "grid",
                    payload.variables[f"{prefix}/points"],
                    payload.variables[f"{prefix}/cells"],
                )
            elif f"{prefix}/geom" in payload.variables:
                geom = payload.variables[f"{prefix}/geom"]
                origin = tuple(geom[0:3])
                spacing = tuple(geom[3:6])
                dims = tuple(int(d) for d in geom[6:9])
                self._geometry[int(index)] = ("image", origin, spacing, dims)

    # -- DataAdaptor interface ------------------------------------------------
    def get_number_of_meshes(self) -> int:
        return 1 if self._payloads else 0

    def get_mesh_metadata(self, index: int) -> MeshMetadata:
        if index != 0 or not self._payloads:
            raise IndexError("no streamed mesh available")
        pts = sum(
            g[1].shape[0] if g[0] == "grid" else int(np.prod(g[3]))
            for g in self._geometry.values()
        )
        cells = sum(
            g[2].shape[0] if g[0] == "grid" else 0 for g in self._geometry.values()
        )
        return MeshMetadata(
            name=self._mesh_name,
            num_blocks=self._num_blocks or len(self._geometry),
            local_block_ids=tuple(sorted(self._geometry)),
            num_points_local=pts,
            num_cells_local=cells,
            arrays=tuple(ArrayMetadata(a, "point", 1) for a in self._arrays),
            step=self._step,
            time=self._time,
            extra=dict(self._extra),
        )

    def get_mesh(self, name: str, structure_only: bool = False) -> MultiBlockDataSet:
        if name != self._mesh_name:
            raise KeyError(
                f"stream carries mesh {self._mesh_name!r}, not {name!r}"
            )
        mb = MultiBlockDataSet()
        top = self._num_blocks or (max(self._geometry) + 1 if self._geometry else 0)
        if top:
            mb.set_block(top - 1, None)
        if structure_only:
            return mb
        for index, geom in self._geometry.items():
            if geom[0] == "grid":
                mb.set_block(index, UnstructuredGrid(geom[1], geom[2]))
            else:
                _, origin, spacing, dims = geom
                mb.set_block(index, ImageData(dims=dims, origin=origin, spacing=spacing))
        return mb

    def add_array(
        self,
        mesh: MultiBlockDataSet,
        mesh_name: str,
        association: str,
        array_name: str,
    ) -> None:
        if association != "point":
            raise ValueError("streamed data is point-centered")
        found = False
        for payload in self._payloads.values():
            block_ids = payload.variables["block_ids"].astype(int)
            for index in block_ids:
                key = f"block{index}/array/{array_name}"
                if key not in payload.variables:
                    continue
                block = mesh.get_block(int(index))
                if block is None:
                    continue
                block.add_array(DataArray(array_name, payload.variables[key]))
                found = True
        if not found:
            raise KeyError(f"stream carries no array {array_name!r}")

    def release_data(self) -> None:
        self._payloads = {}

    @property
    def staged_bytes(self) -> int:
        """Bytes of the currently held step payloads."""
        return sum(p.nbytes for p in self._payloads.values())
