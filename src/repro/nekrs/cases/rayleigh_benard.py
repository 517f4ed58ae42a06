"""Rayleigh-Benard convection — the in transit workload (Section 4.2).

Nondimensionalization: lengths by the layer height H, velocity by the
free-fall speed U = sqrt(g alpha dT H), giving

    du/dt + (u.grad)u = -grad p + sqrt(Pr/Ra) lap u + T e_z
    dT/dt + (u.grad)T =  1/sqrt(Ra Pr)  lap T

with T = +0.5 at the hot bottom plate, T = -0.5 at the cold top,
periodic sidewalls; the initial condition seeds the conductive profile
with a deterministic perturbation so convection cells form quickly.

``weak_scaled_rbc_case`` builds the paper's weak-scaling series: a wide
box whose horizontal extent grows with the rank count so the element
load per rank stays constant — "mesoscale" convection with aspect
ratio growing with the machine, as in the solar-surface RBC runs the
paper cites.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nekrs.config import CaseDefinition, ScalarBC, VelocityBC
from repro.sem.mesh import BoundaryTag
from repro.util.rng import make_rng


def rayleigh_benard_case(
    rayleigh: float = 1e5,
    prandtl: float = 0.7,
    aspect: tuple[int, int] = (2, 2),
    elements_per_unit: int = 4,
    order: int = 5,
    dt: float = 2e-3,
    num_steps: int = 2000,
    seed: int = 2023,
) -> CaseDefinition:
    """Build an RBC case of horizontal aspect `aspect` (in units of H)."""
    if rayleigh <= 0 or prandtl <= 0:
        raise ValueError("Ra and Pr must be positive")
    ax, ay = aspect
    nu = math.sqrt(prandtl / rayleigh)
    kappa = 1.0 / math.sqrt(rayleigh * prandtl)

    ex = max(2, int(round(elements_per_unit * ax)))
    ey = max(2, int(round(elements_per_unit * ay)))
    ez = max(2, elements_per_unit)

    rng = make_rng(seed)
    # deterministic low-wavenumber perturbation amplitudes
    amps = rng.normal(0.0, 1.0, size=(3, 3))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(3, 3))

    def initial_temperature(x, y, z):
        conductive = 0.5 - z  # +0.5 at z=0, -0.5 at z=1
        pert = np.zeros_like(x)
        for i in range(3):
            for j in range(3):
                kx = 2.0 * math.pi * (i + 1) / ax
                ky = 2.0 * math.pi * (j + 1) / ay
                pert += amps[i, j] * np.sin(kx * x + phases[i, j]) * np.cos(ky * y)
        # vanish at the plates so the Dirichlet BCs hold at t=0
        envelope = np.sin(math.pi * z)
        return conductive + 0.02 * pert * envelope

    def forcing(x, y, z, t, T):
        """Boussinesq buoyancy: T drives vertical momentum."""
        zero = np.zeros_like(x)
        return zero, zero, T

    noslip = VelocityBC()
    return CaseDefinition(
        name=f"rbc-ra{rayleigh:.0e}-a{ax}x{ay}",
        mesh_shape=(ex, ey, ez),
        extent=((0.0, 0.0, 0.0), (float(ax), float(ay), 1.0)),
        order=order,
        periodic=(True, True, False),
        viscosity=nu,
        conductivity=kappa,
        dt=dt,
        num_steps=num_steps,
        time_order=2,
        velocity_bcs={BoundaryTag.ZMIN: noslip, BoundaryTag.ZMAX: noslip},
        temperature_bcs={
            BoundaryTag.ZMIN: ScalarBC(0.5),
            BoundaryTag.ZMAX: ScalarBC(-0.5),
        },
        initial_velocity=lambda x, y, z: (
            np.zeros_like(x),
            np.zeros_like(x),
            np.zeros_like(x),
        ),
        initial_temperature=initial_temperature,
        forcing=forcing,
    )


def weak_scaled_rbc_case(
    num_ranks: int,
    elements_per_rank: int = 8,
    order: int = 5,
    rayleigh: float = 1e5,
    **kwargs,
) -> CaseDefinition:
    """RBC case sized so each rank owns ~`elements_per_rank` elements.

    The horizontal aspect grows with the rank count (the vertical
    resolution is fixed by the physics), which is exactly how the
    paper's mesoscale weak scaling is constructed.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    epu = 2  # elements per unit length horizontally, ez = 2 vertically
    total_elements = num_ranks * elements_per_rank
    columns = max(1, total_elements // (epu * epu * 2))
    ax = max(1, int(round(math.sqrt(columns))))
    ay = max(1, -(-columns // ax))
    case = rayleigh_benard_case(
        rayleigh=rayleigh,
        aspect=(ax, ay),
        elements_per_unit=epu,
        order=order,
        **kwargs,
    )
    return case
