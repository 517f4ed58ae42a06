"""VTKPosthocIO: write received data to disk as VTU/VTM files.

This is the "Checkpointing" measurement point of the in transit
experiment (Section 4.2): the SENSEI endpoint writes the pressure and
velocity fields to the storage system as VTU files — one .vtu per
block per dump plus a .vtm index from rank 0.  Bytes written are
tracked; they feed the storage-economy numbers.
"""

from __future__ import annotations

from pathlib import Path

from repro.parallel.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor
from repro.vtkdata.dataset import UnstructuredGrid
from repro.vtkdata.writers import write_vtm, write_vtu


class VTKPosthocIO(AnalysisAdaptor):
    def __init__(
        self,
        comm: Communicator,
        output_dir,
        mesh_name: str = "mesh",
        arrays: tuple[str, ...] = ("pressure",),
        encoding: str = "appended",
    ):
        self.comm = comm
        self.output_dir = Path(output_dir)
        self.mesh_name = mesh_name
        self.arrays = tuple(arrays)
        self.encoding = encoding
        self.bytes_written = 0
        self.files_written = 0
        self.dumps = 0

    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        mesh = data.get_mesh(self.mesh_name)
        for name in self.arrays:
            data.add_array(mesh, self.mesh_name, "point", name)

        self.output_dir.mkdir(parents=True, exist_ok=True)
        local_files: list[tuple[int, str]] = []
        for index, block in enumerate(mesh.blocks):
            if block is None or not isinstance(block, UnstructuredGrid):
                continue
            fname = f"{self.mesh_name}_{step:06d}_b{index:04d}.vtu"
            nbytes = write_vtu(self.output_dir / fname, block, self.encoding)
            self.bytes_written += nbytes
            self.files_written += 1
            local_files.append((index, fname))

        # rank 0 writes the multiblock index over everyone's pieces
        all_files = self.comm.gather(local_files)
        if self.comm.is_root:
            num_blocks = self.comm.size if mesh.num_blocks == 0 else mesh.num_blocks
            entries: list[str | None] = [None] * num_blocks
            for chunk in all_files:
                for index, fname in chunk:
                    if index >= len(entries):
                        entries.extend([None] * (index + 1 - len(entries)))
                    entries[index] = fname
            nbytes = write_vtm(
                self.output_dir / f"{self.mesh_name}_{step:06d}.vtm", entries
            )
            self.bytes_written += nbytes
            self.files_written += 1
        self.dumps += 1
        return True
