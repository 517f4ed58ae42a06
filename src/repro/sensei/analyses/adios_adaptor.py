"""The ADIOS AnalysisAdaptor: the send side of the in transit workflow.

Instead of analyzing in place, this adaptor marshals the requested
meshes/arrays into ADIOS step payloads and ships them through an
engine — SST (staged, streaming, the paper's configuration) or BPFile
(file-staged).  A SENSEI data consumer on the endpoint reconstructs a
DataAdaptor from the stream (``repro.insitu.streamed``) and runs its
own XML-configured analyses, completing the paper's
"endpoint of our workflow is always a SENSEI data consumer" design.

Geometry is streamed once (first step) unless the mesh deforms;
arrays are streamed every invocation.
"""

from __future__ import annotations

import json

import numpy as np

from repro.observe.live.correlate import StepTag
from repro.observe.session import get_telemetry
from repro.parallel.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor
from repro.vtkdata.dataset import ImageData, UnstructuredGrid


class ADIOSAnalysisAdaptor(AnalysisAdaptor):
    def __init__(
        self,
        comm: Communicator,
        engine,                       # SSTWriterEngine or BPFileWriterEngine
        mesh_name: str = "mesh",
        arrays: tuple[str, ...] = ("pressure",),
    ):
        self.comm = comm
        self.engine = engine
        self.mesh_name = mesh_name
        self.arrays = tuple(arrays)
        self._geometry_sent = False
        self.steps_sent = 0
        self.bytes_sent = 0

    # -- fault-tolerance surface (used by the Bridge degradation layer) ----
    @property
    def fault_log(self):
        """The transport's FaultLog, when the engine is broker-backed."""
        broker = getattr(self.engine, "broker", None)
        return broker.stats.faults if broker is not None else None

    def mark_transport_down(self) -> None:
        """Fail writers fast instead of retrying against a dead endpoint."""
        broker = getattr(self.engine, "broker", None)
        if broker is not None:
            broker.mark_endpoint_down()

    @classmethod
    def from_xml_attributes(cls, comm: Communicator, attrs: dict):
        """XML path supports the file-staged engine only; SST engines
        carry live broker objects and are constructed by the in
        transit runner."""
        from repro.adios.engine import BPFileWriterEngine

        engine_type = attrs.get("engine", "BPFile")
        if engine_type != "BPFile":
            raise ValueError(
                "XML-configured adios analysis supports engine=BPFile; "
                "SST streams are wired programmatically by the runner"
            )
        engine = BPFileWriterEngine(
            attrs.get("stream", "sensei"),
            attrs.get("directory", "."),
            writer_rank=comm.rank,
        )
        arrays = tuple(
            a.strip() for a in attrs.get("arrays", "pressure").split(",") if a.strip()
        )
        return cls(comm, engine, mesh_name=attrs.get("mesh", "mesh"), arrays=arrays)

    # -- helpers -----------------------------------------------------------
    def _metadata_for(self, data: DataAdaptor):
        for i in range(data.get_number_of_meshes()):
            m = data.get_mesh_metadata(i)
            if m.name == self.mesh_name:
                return m
        raise KeyError(f"no mesh named {self.mesh_name!r}")

    def execute(self, data: DataAdaptor) -> bool:
        broker = getattr(self.engine, "broker", None)
        if broker is not None and broker.endpoint_down:
            # fail before staging a step the transport cannot deliver
            from repro.faults.errors import EndpointDownError

            raise EndpointDownError("SST endpoint marked down")
        meta = self._metadata_for(data)
        mesh = data.get_mesh(self.mesh_name)
        for name in self.arrays:
            data.add_array(mesh, self.mesh_name, "point", name)

        engine = self.engine
        engine.set_step_info(data.get_data_time_step(), data.get_data_time())
        engine.begin_step()
        live = get_telemetry().live
        if live.enabled:
            # correlation tag rides the frame's attribute header (RBP2
            # or RBP3); the consumer decodes it to stitch the timeline
            tag = StepTag(
                run_id=live.run_id,
                step=data.get_data_time_step(),
                stream=self.comm.rank,
            )
            engine.put_attribute("corr", tag.encode())
        engine.put_attribute("mesh_name", self.mesh_name)
        engine.put_attribute("arrays", ",".join(self.arrays))
        engine.put_attribute("extra", json.dumps(meta.extra))
        engine.put_attribute("num_blocks", str(meta.num_blocks))

        blocks = [
            (i, b) for i, b in enumerate(mesh.blocks) if b is not None
        ]
        engine.put("block_ids", np.asarray([i for i, _ in blocks], dtype=np.int64))

        # the mesh does not move: its geometry goes on the first step only
        send_geometry = not self._geometry_sent
        engine.put_attribute("has_geometry", "1" if send_geometry else "0")
        nbytes = 0
        for index, block in blocks:
            prefix = f"block{index}"
            if isinstance(block, UnstructuredGrid):
                if send_geometry:
                    engine.put(f"{prefix}/points", block.points)
                    engine.put(f"{prefix}/cells", block.cells)
                    nbytes += block.points.nbytes + block.cells.nbytes
                for name in self.arrays:
                    vals = block.point_data[name].values
                    engine.put(f"{prefix}/array/{name}", vals)
                    nbytes += vals.nbytes
            elif isinstance(block, ImageData):
                if send_geometry:
                    geom = np.asarray(
                        list(block.origin) + list(block.spacing) + list(block.dims),
                        dtype=np.float64,
                    )
                    engine.put(f"{prefix}/geom", geom)
                    nbytes += geom.nbytes
                for name in self.arrays:
                    vals = block.point_data[name].values
                    engine.put(f"{prefix}/array/{name}", vals)
                    nbytes += vals.nbytes
            else:
                raise TypeError(f"cannot stream block type {type(block).__name__}")
        engine.end_step()
        if send_geometry:
            self._geometry_sent = True
        self.steps_sent += 1
        self.bytes_sent += nbytes
        return True

    def finalize(self) -> None:
        self.engine.close()
