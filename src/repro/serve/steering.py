"""The steering bus: client commands back into the running simulation.

Clients (HTTP ``POST /steer``, the loopback transport, tests) submit
:class:`SteerCommand` objects onto a thread-safe :class:`SteeringBus`.
A :class:`SteeringEndpoint` — a stock SENSEI ``AnalysisAdaptor``
registered *first* in the analysis chain — drains the bus at every
step boundary on rank 0, broadcasts the batch to all ranks, and applies
it identically everywhere:

- ``stop`` rides the existing SENSEI stop protocol (``execute``
  returning ``False``, the same contract ``DivergenceGuard`` uses);
- ``pause``/``resume`` hold *all* ranks at the step boundary — rank 0
  polls the bus while paused and broadcasts each batch, so the group
  stays collectively synchronized until a ``resume`` or ``stop``;
- ``isovalue``/``colormap``/``camera_orbit`` mutate the Catalyst
  pipeline's parameters through its declarative specs, so the *next*
  rendered frame reflects the command on every rank (sort-last
  compositing requires identical spec state on all ranks).

Commands apply between steps, never mid-render — the simulation is the
only writer of its own state; steering only ever touches analysis
parameters and the run/stop decision.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

from repro.observe.session import get_telemetry
from repro.parallel.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import DataAdaptor

__all__ = ["SteerCommand", "SteeringBus", "SteeringEndpoint", "STEER_KINDS"]

STEER_KINDS = (
    "pause", "resume", "stop", "isovalue", "colormap", "camera_orbit",
    "advisory",
)


@dataclass(frozen=True)
class SteerCommand:
    """One client command.  `value` is kind-specific:

    - ``isovalue``: float, the new contour value;
    - ``colormap``: str, the new colormap name for every spec;
    - ``camera_orbit``: float, degrees to rotate the view direction
      about the vertical (z) axis;
    - ``pause``/``resume``/``stop``: value unused;
    - ``advisory``: str, operator guidance (e.g. an SLO watchdog
      alert) — recorded and surfaced to clients, mutates nothing.
    """

    kind: str
    value: float | str | None = None
    client: str = ""

    def __post_init__(self):
        if self.kind not in STEER_KINDS:
            raise ValueError(
                f"steer kind must be one of {STEER_KINDS}, got {self.kind!r}"
            )


class SteeringBus:
    """Thread-safe command queue between transports and the endpoint."""

    def __init__(self):
        self._pending: list[SteerCommand] = []
        self._cond = threading.Condition()
        self.submitted = 0
        self.applied: list[SteerCommand] = []

    def submit(self, command: SteerCommand) -> None:
        with self._cond:
            self._pending.append(command)
            self.submitted += 1
            self._cond.notify_all()

    def drain(self) -> list[SteerCommand]:
        """Take every pending command (non-blocking)."""
        with self._cond:
            out, self._pending = self._pending, []
            return out

    def wait(self, timeout: float) -> list[SteerCommand]:
        """Block up to `timeout` for at least one command, then drain."""
        with self._cond:
            if not self._pending:
                self._cond.wait(timeout)
            out, self._pending = self._pending, []
            return out

    def record_applied(self, commands) -> None:
        with self._cond:
            self.applied.extend(commands)

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._pending)


def orbit_direction(direction, degrees: float):
    """Rotate a view direction about the +z axis by `degrees`."""
    x, y, z = (float(c) for c in direction)
    a = math.radians(degrees)
    ca, sa = math.cos(a), math.sin(a)
    return (x * ca - y * sa, x * sa + y * ca, z)


#: how long a paused endpoint waits on the bus between checks [s]
_BUS_WAIT_S = 0.05


class SteeringEndpoint(AnalysisAdaptor):
    """AnalysisAdaptor applying bus commands at step boundaries.

    `pipelines` are the live ``RenderPipeline`` objects of this rank's
    Catalyst adaptors (may be empty — stop/pause still work).  All
    ranks must share one `bus` object under the threaded SPMD runtime;
    only rank 0 reads it, and every batch is broadcast before applying.
    """

    def __init__(
        self,
        comm: Communicator,
        bus: SteeringBus,
        pipelines=(),
    ):
        self.comm = comm
        self.bus = bus
        self.pipelines = list(pipelines)
        self.paused = False
        self.stopped_at: int | None = None
        self.commands_applied = 0

    # -- the SENSEI hook ---------------------------------------------------
    def execute(self, data: DataAdaptor) -> bool:
        step = data.get_data_time_step()
        keep_going = self._apply_batch(self._exchange(block=False), step)
        # hold the whole group at this boundary while paused
        while keep_going and self.paused:
            keep_going = self._apply_batch(self._exchange(block=True), step)
        return keep_going

    def _exchange(self, block: bool) -> list[SteerCommand]:
        if self.comm.rank == 0:
            cmds = self.bus.wait(_BUS_WAIT_S) if block else self.bus.drain()
        else:
            cmds = None
        if self.comm.size > 1:
            cmds = self.comm.bcast(cmds)
        return cmds or []

    def _apply_batch(self, commands, step: int) -> bool:
        keep_going = True
        tel = get_telemetry()
        for cmd in commands:
            self._apply(cmd)
            self.commands_applied += 1
            if tel.enabled:
                tel.tracer.instant(
                    "steering.command", kind=cmd.kind, step=step,
                    client=cmd.client,
                )
                if self.comm.rank == 0:
                    tel.metrics.counter(
                        "repro_serve_steer_commands_total",
                        "Steering commands applied at step boundaries",
                    ).inc()
            if cmd.kind == "stop":
                self.stopped_at = step
                keep_going = False
        if self.comm.rank == 0 and commands:
            self.bus.record_applied(commands)
        return keep_going

    def _apply(self, cmd: SteerCommand) -> None:
        if cmd.kind == "pause":
            self.paused = True
        elif cmd.kind in ("resume", "stop"):
            self.paused = False
        elif cmd.kind == "isovalue":
            value = float(cmd.value)
            for pipe in self.pipelines:
                pipe.specs = [
                    replace(s, isovalue=value) if s.kind == "contour" else s
                    for s in pipe.specs
                ]
        elif cmd.kind == "colormap":
            for pipe in self.pipelines:
                pipe.specs = [replace(s, colormap=str(cmd.value)) for s in pipe.specs]
        elif cmd.kind == "camera_orbit":
            for pipe in self.pipelines:
                pipe.view_direction = orbit_direction(
                    pipe.view_direction, float(cmd.value)
                )
        # "advisory" intentionally falls through: it is operator
        # guidance riding the bus, visible in `applied`, never a mutation
