"""Parallel-filesystem write model.

Checkpointing in the paper writes ~19 GB of field data per run on a
Lustre-class filesystem.  The dominant effects at scale are (a) a
per-file metadata cost and (b) aggregate bandwidth saturation once
enough nodes write concurrently — a single node cannot exceed its own
link, and the whole job cannot exceed the filesystem's backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.specs import FS_SYNC_LATENCY_S, FilesystemSpec

_GB = 1e9


@dataclass(frozen=True)
class FilesystemModel:
    spec: FilesystemSpec

    def effective_write_gbs(self, nodes_writing: int) -> float:
        """Sustained aggregate write bandwidth for a concurrent job."""
        if nodes_writing < 1:
            raise ValueError("nodes_writing must be >= 1")
        return min(
            nodes_writing * self.spec.per_node_write_gbs,
            self.spec.aggregate_write_gbs,
        )

    def write_time(
        self, total_bytes: int, nodes_writing: int, num_files: int = 1
    ) -> float:
        """Wall time for a collective write of `total_bytes` spread
        evenly over `nodes_writing` nodes into `num_files` files.

        Three terms: the commit/fsync barrier all writers pay once per
        dump, the metadata burst (file creates pipeline across nodes),
        and the bandwidth term at the job's effective aggregate rate.
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if num_files < 0:
            raise ValueError("num_files must be non-negative")
        bw = self.effective_write_gbs(nodes_writing) * _GB
        meta = self.spec.open_latency_s * max(1.0, num_files / nodes_writing)
        return FS_SYNC_LATENCY_S + meta + total_bytes / bw
