"""Mesh/array metadata exchanged before any heavy data moves.

SENSEI's ``GetMeshMetadata`` lets an analysis discover what the
simulation can provide (meshes, arrays, centerings, block decomposition,
sizes) and request only what it needs — the contract that keeps the
coupling zero-copy until an analysis actually asks for an array.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ArrayMetadata:
    name: str
    association: str          # "point" | "cell"
    components: int = 1

    def __post_init__(self):
        if self.association not in ("point", "cell"):
            raise ValueError(f"bad association {self.association!r}")
        if self.components < 1:
            raise ValueError("components must be >= 1")


@dataclass
class MeshMetadata:
    """Description of one mesh a DataAdaptor can serve."""

    name: str
    num_blocks: int                       # global block count (= ranks)
    local_block_ids: tuple[int, ...]      # blocks this rank owns
    num_points_local: int
    num_cells_local: int
    arrays: tuple[ArrayMetadata, ...] = ()
    bounds: tuple = ()                    # ((x0,x1),(y0,y1),(z0,z1)) global
    step: int = 0
    time: float = 0.0
    extra: dict = field(default_factory=dict)

    def array(self, name: str) -> ArrayMetadata:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"mesh {self.name!r} has no array {name!r}")
