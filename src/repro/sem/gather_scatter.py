"""Direct-stiffness summation (gather-scatter), the role of gslib in Nek.

Continuous Galerkin SEM stores coincident interface nodes redundantly
(once per touching element).  The gather-scatter operator ``QQ^T`` sums
every copy of a shared node and writes the sum back to all copies —
first among local elements, then across ranks.

Setup exchanges the ranks' global-id sets once to find the *interface
ids* (ids owned by more than one rank); afterwards each application
does one dense allreduce over the interface values.  At the in-process
scales we execute this is both simple and fast; the communication
volume it meters (interface count x 8 bytes per application) is what
the machine model replays at leadership scale.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import Communicator, ReduceOp

from repro.perf import config


def interface_ids_reference(all_sets: list[np.ndarray]) -> np.ndarray:
    """Original O(total-ids) Python-dict discovery, kept for the gate."""
    counts: dict[int, int] = {}
    for ids in all_sets:
        for gid in ids:
            counts[int(gid)] = counts.get(int(gid), 0) + 1
    shared = sorted(gid for gid, c in counts.items() if c > 1)
    return np.array(shared, dtype=np.int64)


def find_interface_ids(all_sets: list[np.ndarray]) -> np.ndarray:
    """Ids appearing in more than one rank's (already-unique) id set."""
    if not config.enabled():
        return interface_ids_reference(all_sets)
    # each per-rank set is unique, so an id's total count across the
    # concatenation equals the number of ranks holding it
    uniq, counts = np.unique(np.concatenate(all_sets), return_counts=True)
    return np.ascontiguousarray(uniq[counts > 1], dtype=np.int64)


class GatherScatter:
    """QQ^T over a distributed global numbering.

    Parameters
    ----------
    global_ids:
        int64 array, any shape, giving the global id of every local
        node; coincident nodes share an id.
    comm:
        communicator across which ids may be shared.
    """

    def __init__(self, global_ids: np.ndarray, comm: Communicator):
        self.comm = comm
        self.shape = global_ids.shape
        flat = np.ascontiguousarray(global_ids, dtype=np.int64).ravel()
        self.local_unique, self.inverse = np.unique(flat, return_inverse=True)
        self.num_local_unique = len(self.local_unique)

        # Find ids shared with other ranks (interface ids).
        all_sets = comm.allgather(self.local_unique)
        if comm.size == 1:
            self.interface_ids = np.empty(0, dtype=np.int64)
        else:
            self.interface_ids = find_interface_ids(all_sets)
        # positions of my unique ids inside the interface vector
        mine_mask = np.isin(self.local_unique, self.interface_ids, assume_unique=True)
        self.my_interface_local = np.nonzero(mine_mask)[0]
        self.my_interface_global = np.searchsorted(
            self.interface_ids, self.local_unique[self.my_interface_local]
        )
        self._multiplicity: np.ndarray | None = None
        self._inv_multiplicity: np.ndarray | None = None

    # -- core --------------------------------------------------------------
    def masked_index(self, mask: np.ndarray) -> np.ndarray:
        """The gather index of ``gs(f) * mask``: masked-out nodes read
        the zero slot after the summed values.  Build once per mask and
        pass as ``index``."""
        return np.where(mask.ravel(), self.inverse, self.num_local_unique)

    def __call__(self, field: np.ndarray, out: np.ndarray | None = None,
                 index: np.ndarray | None = None) -> np.ndarray:
        """Return QQ^T field (sum over all copies of each node), written
        into `out` (C-contiguous) if given; with
        ``index=masked_index(mask)`` it is ``QQ^T field * mask`` in the
        same pass."""
        if field.shape != self.shape:
            raise ValueError(
                f"field shape {field.shape} does not match numbering {self.shape}"
            )
        # one slot past the unique ids stays zero for masked_index
        summed = np.bincount(self.inverse, weights=field.ravel(),
                             minlength=self.num_local_unique + 1)
        if self.comm.size > 1 and len(self.interface_ids):
            iface = np.zeros(len(self.interface_ids))
            iface[self.my_interface_global] = summed[self.my_interface_local]
            iface = self.comm.allreduce_array(iface, ReduceOp.SUM)
            summed[self.my_interface_local] = iface[self.my_interface_global]
        if out is None:
            out = np.empty(self.shape)
        # every index is in range by construction; "clip" skips the
        # bounds pass and the buffered copy that the default "raise" makes
        np.take(summed, self.inverse if index is None else index,
                out=out.reshape(-1), mode="clip")
        return out

    @property
    def multiplicity(self) -> np.ndarray:
        """Number of copies of each node (gs applied to ones)."""
        if self._multiplicity is None:
            self._multiplicity = self(np.ones(self.shape))
        return self._multiplicity

    def average(self, field: np.ndarray) -> np.ndarray:
        """Make a redundant field single-valued by averaging copies."""
        return self(field) / self.multiplicity

    @property
    def inv_multiplicity(self) -> np.ndarray:
        if self._inv_multiplicity is None:
            self._inv_multiplicity = 1.0 / self.multiplicity
        return self._inv_multiplicity
