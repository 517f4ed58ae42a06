"""In situ particle (tracer) advection.

A classic in situ analysis the posthoc world cannot do well: passive
tracers need the velocity field at *every* step, which is exactly the
data checkpointing throws away between dumps.  The tracer cloud is
advected through the instantaneous velocity with RK2 (midpoint) on the
spectrally resampled uniform grid; trajectories are recorded and can
be dumped as CSV for later rendering.

Particles follow the flow across the whole (global) domain, so each
rank gathers the uniform fragments like the Catalyst adaptor does and
rank 0 owns the cloud (tracer counts are tiny next to field data).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.catalyst.slicefilter import trilinear_sample
from repro.parallel.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor
from repro.sensei.analyses.catalyst_adaptor import gather_uniform_volume
from repro.util.rng import make_rng

_VELOCITY_ARRAYS = ("velocity_x", "velocity_y", "velocity_z")


class ParticleTracer(AnalysisAdaptor):
    def __init__(
        self,
        comm: Communicator,
        num_particles: int = 64,
        mesh_name: str = "uniform",
        seed: int = 7,
        output_dir: Path | str | None = None,
    ):
        if num_particles < 1:
            raise ValueError("need at least one particle")
        self.comm = comm
        self.mesh_name = mesh_name
        self.num_particles = num_particles
        self.seed = seed
        self.output_dir = Path(output_dir) if output_dir else None
        self.positions: np.ndarray | None = None   # root rank only
        self.trajectory: list[np.ndarray] = []
        self._last_time: float | None = None

    def _seed_particles(self, image) -> np.ndarray:
        """Uniformly random positions over the whole image extent."""
        rng = make_rng(self.seed)
        dims = np.asarray(image.dims, dtype=float)
        lo = np.asarray(image.origin, dtype=float)
        hi = lo + (dims - 1) * np.asarray(image.spacing, dtype=float)
        return lo + rng.random((self.num_particles, 3)) * (hi - lo)

    def _sample_velocity(self, image, pts: np.ndarray) -> np.ndarray:
        vel = np.zeros_like(pts)
        for i, name in enumerate(_VELOCITY_ARRAYS):
            vel[:, i] = trilinear_sample(
                image.as_volume(name), image.origin, image.spacing, pts, fill=0.0
            )
        return vel

    def execute(self, data: DataAdaptor) -> bool:
        image = gather_uniform_volume(
            self.comm, data, self.mesh_name, _VELOCITY_ARRAYS
        )
        time = data.get_data_time()
        # non-root ranks only participate in the gather
        if image is None:
            return True

        if self.positions is None:
            self.positions = self._seed_particles(image)
            self.trajectory.append(self.positions.copy())
            self._last_time = time
            return True

        dt = time - (self._last_time if self._last_time is not None else time)
        if dt > 0:
            # RK2 midpoint through the frozen field of this step
            k1 = self._sample_velocity(image, self.positions)
            mid = self.positions + 0.5 * dt * k1
            k2 = self._sample_velocity(image, mid)
            self.positions = self.positions + dt * k2
            self._clamp_into(image)
        self.trajectory.append(self.positions.copy())
        self._last_time = time
        return True

    def _clamp_into(self, image) -> None:
        lo = np.asarray(image.origin, dtype=float)
        hi = lo + (np.asarray(image.dims) - 1) * np.asarray(image.spacing)
        np.clip(self.positions, lo, hi, out=self.positions)

    def finalize(self) -> None:
        if self.output_dir is None or self.positions is None:
            return
        if not self.comm.is_root:
            return
        self.output_dir.mkdir(parents=True, exist_ok=True)
        path = self.output_dir / "tracers.csv"
        with open(path, "w") as f:
            f.write("snapshot,particle,x,y,z\n")
            for s, snap in enumerate(self.trajectory):
                for p, (x, y, z) in enumerate(snap):
                    f.write(f"{s},{p},{x:.9g},{y:.9g},{z:.9g}\n")

    @property
    def displacement(self) -> np.ndarray:
        """Per-particle net displacement since seeding (root rank)."""
        if len(self.trajectory) < 2:
            return np.zeros((self.num_particles, 3))
        return self.trajectory[-1] - self.trajectory[0]
