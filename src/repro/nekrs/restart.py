"""Full-state restart: serialize and restore a solver mid-run.

Plain ``.fld`` checkpoints carry only the primary fields (that is what
the paper's "Checkpointing" configuration writes, and what its storage
numbers count).  Restarting a BDF2/3 run bit-exactly additionally needs
the time histories and the basis the pressure solve projects its
starting guess onto, so restart files extend the same container with
``hist/...`` entries plus step/time bookkeeping.

Round-trip guarantee (tested): run A for n+m steps, versus run B for n
steps -> write_restart -> read_restart -> m steps, produce identical
state to the last bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nekrs.checkpoint import read_checkpoint, write_checkpoint
from repro.nekrs.solver import NekRSSolver


def state_dict(solver: NekRSSolver) -> dict[str, np.ndarray]:
    """All persistent per-rank state as named same-shape fields."""
    fields: dict[str, np.ndarray] = {
        "velocity_x": solver.u,
        "velocity_y": solver.v,
        "velocity_z": solver.w,
        "pressure": solver.p,
    }
    if solver.T is not None:
        fields["temperature"] = solver.T
    for j, (u, v, w) in enumerate(solver._hist_u):
        fields[f"hist/u{j}/x"] = u
        fields[f"hist/u{j}/y"] = v
        fields[f"hist/u{j}/z"] = w
    for j, (nx, ny, nz) in enumerate(solver._hist_adv):
        fields[f"hist/adv{j}/x"] = nx
        fields[f"hist/adv{j}/y"] = ny
        fields[f"hist/adv{j}/z"] = nz
    for j, t in enumerate(solver._hist_T):
        fields[f"hist/T{j}"] = t
    for j, t in enumerate(solver._hist_advT):
        fields[f"hist/advT{j}"] = t
    proj = solver._pressure_proj
    for j in range(proj.count):
        fields[f"hist/pproj{j}"] = proj.basis[j]
    return fields


def load_state_dict(solver: NekRSSolver, fields: dict[str, np.ndarray]) -> None:
    """Restore state produced by :func:`state_dict` into `solver`."""
    expected = solver.mesh.field_shape()
    for name, arr in fields.items():
        if arr.shape != expected:
            raise ValueError(
                f"restart field {name!r} has shape {arr.shape}, solver "
                f"expects {expected} (mesh/rank-count mismatch?)"
            )
    solver.u[:] = fields["velocity_x"]
    solver.v[:] = fields["velocity_y"]
    solver.w[:] = fields["velocity_z"]
    solver.p[:] = fields["pressure"]
    if solver.T is not None:
        solver.T[:] = fields["temperature"]

    def collect_vectors(prefix: str) -> list[tuple]:
        out = []
        j = 0
        while f"hist/{prefix}{j}/x" in fields:
            out.append(
                tuple(fields[f"hist/{prefix}{j}/{c}"].copy() for c in "xyz")
            )
            j += 1
        return out

    def collect_scalars(prefix: str) -> list[np.ndarray]:
        out = []
        j = 0
        while f"hist/{prefix}{j}" in fields:
            out.append(fields[f"hist/{prefix}{j}"].copy())
            j += 1
        return out

    solver._hist_u = collect_vectors("u")
    solver._hist_adv = collect_vectors("adv")
    solver._hist_T = collect_scalars("T")
    solver._hist_advT = collect_scalars("advT")
    basis = collect_scalars("pproj")
    solver._pressure_proj.count = len(basis)
    for j, x in enumerate(basis):
        solver._pressure_proj.basis[j] = x


def write_restart(directory, solver: NekRSSolver) -> tuple[Path, int]:
    """Write this rank's full restart file; returns (path, bytes)."""
    return write_checkpoint(
        directory,
        f"{solver.case.name}-restart",
        solver.step_index,
        solver.time,
        solver.comm.rank,
        solver.comm.size,
        state_dict(solver),
    )


def read_restart(directory, solver: NekRSSolver) -> None:
    """Restore `solver` from this rank's restart file in `directory`."""
    from repro.nekrs.checkpoint import checkpoint_filename

    directory = Path(directory)
    candidates = sorted(
        directory.glob(f"{solver.case.name}-restart0.f*.r{solver.comm.rank:04d}")
    )
    if not candidates:
        raise FileNotFoundError(
            f"no restart files for case {solver.case.name!r} rank "
            f"{solver.comm.rank} under {directory}"
        )
    header, fields = read_checkpoint(candidates[-1])
    if header.size != solver.comm.size:
        raise ValueError(
            f"restart was written on {header.size} ranks, solver has "
            f"{solver.comm.size}"
        )
    load_state_dict(solver, fields)
    solver.step_index = header.step
    solver.time = header.time
