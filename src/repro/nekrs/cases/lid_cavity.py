"""Lid-driven cavity — small verification case (tests + quickstart).

A unit cube of fluid with the top lid (ZMAX) sliding at unit speed in
x and no-slip everywhere else: the classic incompressible benchmark.
The lid velocity is tapered near the edges so the boundary data is
continuous at the lid/wall corners (the standard "regularized cavity"),
which keeps spectral convergence clean.
"""

from __future__ import annotations

from repro.nekrs.config import CaseDefinition, VelocityBC
from repro.sem.mesh import BoundaryTag


def lid_cavity_case(
    reynolds: float = 100.0,
    elements: int = 3,
    order: int = 5,
    dt: float = 5e-3,
    num_steps: int = 200,
) -> CaseDefinition:
    if reynolds <= 0:
        raise ValueError("Reynolds number must be positive")

    def lid_u(x, y, z, t):
        # quartic taper: 1 in the interior, 0 at the side walls
        return (16.0 * x * (1.0 - x) * y * (1.0 - y)) ** 2

    noslip = VelocityBC()
    return CaseDefinition(
        name=f"cavity-re{reynolds:g}",
        mesh_shape=(elements, elements, elements),
        extent=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        order=order,
        viscosity=1.0 / reynolds,
        dt=dt,
        num_steps=num_steps,
        time_order=2,
        velocity_bcs={
            BoundaryTag.ZMAX: VelocityBC(u=lid_u),
            BoundaryTag.ZMIN: noslip,
            BoundaryTag.XMIN: noslip,
            BoundaryTag.XMAX: noslip,
            BoundaryTag.YMIN: noslip,
            BoundaryTag.YMAX: noslip,
        },
    )
