"""Case definition: everything a solver run needs to know.

A :class:`CaseDefinition` is the in-memory analog of a NekRS case
(.par file + .usr callbacks): mesh geometry, material properties, time
controls, boundary conditions per domain face, initial conditions,
body forces, Brinkman solid masks and heat sources.  Cases in
``repro.nekrs.cases`` construct these; `.par` files can override the
scalar knobs (see ``repro.nekrs.parfile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.sem.mesh import BoundaryTag

#: signature: fn(x, y, z, t) -> array broadcastable to x.shape
SpaceTimeFn = Callable[..., np.ndarray]


@dataclass(frozen=True)
class VelocityBC:
    """Dirichlet velocity on one boundary face.

    Components may be constants or ``fn(x, y, z, t)`` callables.  A face
    without a VelocityBC is natural (do-nothing / outflow).
    """

    u: float | SpaceTimeFn = 0.0
    v: float | SpaceTimeFn = 0.0
    w: float | SpaceTimeFn = 0.0

    def evaluate(self, x, y, z, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        def ev(c):
            if callable(c):
                return np.broadcast_to(np.asarray(c(x, y, z, t), dtype=float), x.shape)
            return np.full_like(x, float(c))

        return ev(self.u), ev(self.v), ev(self.w)

    @property
    def constant(self) -> bool:
        """No component depends on position or time."""
        return not any(callable(c) for c in (self.u, self.v, self.w))


@dataclass(frozen=True)
class ScalarBC:
    """Dirichlet value for a scalar (temperature) on one face.

    Faces without a ScalarBC are insulated (natural/zero-flux).
    """

    value: float | SpaceTimeFn = 0.0

    def evaluate(self, x, y, z, t) -> np.ndarray:
        if callable(self.value):
            return np.broadcast_to(
                np.asarray(self.value(x, y, z, t), dtype=float), x.shape
            )
        return np.full_like(x, float(self.value))

    @property
    def constant(self) -> bool:
        """The value depends on neither position nor time."""
        return not callable(self.value)


@dataclass(frozen=True)
class PassiveScalar:
    """One additional transported scalar (NekRS's s01, s02, ...).

    Advected by the flow and diffused with its own diffusivity; does
    not feed back into the momentum equation (passive).
    """

    name: str
    diffusivity: float
    bcs: dict[BoundaryTag, ScalarBC] = field(default_factory=dict)
    initial: Callable | None = None       # fn(x, y, z) -> values
    source: Callable | None = None        # fn(x, y, z, t) -> values

    _RESERVED = frozenset(
        {
            "velocity_x", "velocity_y", "velocity_z", "pressure",
            "temperature", "velocity", "velocity_magnitude",
            "vorticity_magnitude", "q_criterion",
        }
    )

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise ValueError(f"scalar {self.name!r} diffusivity must be positive")
        if not self.name or self.name in self._RESERVED:
            raise ValueError(
                f"scalar name {self.name!r} is empty or collides with a "
                "built-in field name"
            )


@dataclass(frozen=True)
class CaseDefinition:
    """Complete specification of a solver run."""

    name: str
    mesh_shape: tuple[int, int, int]
    extent: tuple[tuple[float, float, float], tuple[float, float, float]]
    order: int = 5
    periodic: tuple[bool, bool, bool] = (False, False, False)

    # material / physics
    viscosity: float = 1e-2
    density: float = 1.0
    conductivity: float | None = None       # None disables the energy eq.
    heat_capacity: float = 1.0

    # time controls
    dt: float = 1e-3
    num_steps: int = 100
    time_order: int = 2                     # BDF/EXT target order

    # solver controls
    #: quadrature over-integration (3/2 rule) of advection terms —
    #: NekRS's standard dealiasing for marginally resolved turbulence
    dealias: bool = False
    #: linear-solve tolerances, relative to the right-hand side: a solve
    #: stops once ``||r|| <= tol * ||b||``, however good its initial
    #: guess (every solve starts from the last step's field).  The
    #: ``.par`` key ``residualTol`` of [PRESSURE] / [VELOCITY] /
    #: [TEMPERATURE] maps onto these.
    pressure_tol: float = 1e-6
    velocity_tol: float = 1e-8
    scalar_tol: float = 1e-8
    max_iterations: int = 1000

    # boundary conditions
    velocity_bcs: dict[BoundaryTag, VelocityBC] = field(default_factory=dict)
    temperature_bcs: dict[BoundaryTag, ScalarBC] = field(default_factory=dict)
    #: additional transported scalars (NekRS s01, s02, ...)
    passive_scalars: tuple["PassiveScalar", ...] = ()
    #: faces where pressure is pinned to zero (outflow); empty = pure
    #: Neumann pressure with mean projection.
    pressure_dirichlet: tuple[BoundaryTag, ...] = ()

    # callbacks (all optional)
    initial_velocity: Callable | None = None     # fn(x,y,z) -> (u,v,w)
    initial_temperature: Callable | None = None  # fn(x,y,z) -> T
    forcing: Callable | None = None              # fn(x,y,z,t,T) -> (fx,fy,fz)
    heat_source: Callable | None = None          # fn(x,y,z) -> q, steady
    brinkman: Callable | None = None             # fn(x,y,z) -> chi >= 0

    def __post_init__(self):
        if self.viscosity <= 0:
            raise ValueError("viscosity must be positive")
        if self.conductivity is not None and self.conductivity <= 0:
            raise ValueError("conductivity must be positive when set")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.num_steps < 0:
            raise ValueError("num_steps must be non-negative")
        if self.time_order not in (1, 2, 3):
            raise ValueError("time_order must be 1, 2 or 3")
        for tag in self.pressure_dirichlet:
            if tag in self.velocity_bcs:
                raise ValueError(
                    f"face {tag} cannot be both velocity-Dirichlet and "
                    "pressure-Dirichlet (outflow faces leave velocity free)"
                )
        names = [s.name for s in self.passive_scalars]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate passive scalar names: {names}")

    @property
    def has_temperature(self) -> bool:
        return self.conductivity is not None

    def with_overrides(self, **kwargs) -> "CaseDefinition":
        """Functional update (used by .par file overrides)."""
        return replace(self, **kwargs)

    def total_gridpoints(self) -> int:
        ex, ey, ez = self.mesh_shape
        return ex * ey * ez * (self.order + 1) ** 3
