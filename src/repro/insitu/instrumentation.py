"""Run profiles: the measured quantities the benchmarks replay at scale.

A :class:`RunProfile` captures, from a real scaled-down instrumented
run, everything the machine model needs to predict leadership-scale
behavior: per-step compute seconds, per-invocation in situ seconds,
bytes moved per channel (device->host, checkpoint, stream, images) and
per-rank memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunProfile:
    """Measured per-rank/per-step quantities from an instrumented run."""

    case: str
    mode: str                      # "original" | "checkpoint" | "catalyst" | ...
    ranks: int
    steps: int
    insitu_interval: int
    gridpoints_per_rank: float
    num_fields: int

    solver_seconds_per_step: float = 0.0
    insitu_seconds_per_invocation: float = 0.0
    d2h_bytes_per_invocation_per_rank: int = 0
    checkpoint_bytes_per_dump_per_rank: int = 0
    stream_bytes_per_step_per_rank: int = 0
    image_bytes_per_invocation: int = 0
    render_seconds_per_invocation: float = 0.0

    solver_memory_bytes_per_rank: int = 0
    staging_memory_bytes_per_rank: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def invocations(self) -> int:
        """In situ / checkpoint invocations over the whole run."""
        if self.insitu_interval <= 0:
            return 0
        return self.steps // self.insitu_interval
