"""Pebble-bed reactor core flow — the pb146 analog (paper Section 4.1).

The paper's in situ test bench is NekRS's ``pb146`` example: coolant
flow through a cylindrical canister packed with 146 spherical fuel
pebbles.  The production mesh is body-fitted around every pebble; a
body-fitted sphere mesh is out of scope for an axis-aligned box-mesh
SEM, so the pebbles are embedded by **Brinkman penalization**: inside a
pebble a large drag ``chi * u`` forces the velocity to zero, a standard
immersed-boundary technique for porous/packed-bed flows.  The solver
path exercised (3-D forced flow + heated obstacles + scalar transport)
matches the production case, and the rendered imagery shows the same
structure: flow channeling between hot spheres.

Geometry: a vertical duct (z up) with inflow at ZMIN, outflow at ZMAX,
no-slip side walls, packed with a body-centered-cubic-ish arrangement
of equal spheres.  ``num_pebbles`` defaults to 146 like pb146; smaller
counts scale the duct length down proportionally so the packing
density stays comparable.
"""

from __future__ import annotations

import numpy as np

from repro.nekrs.config import CaseDefinition, ScalarBC, VelocityBC
from repro.sem.mesh import BoundaryTag


def pebble_centers(num_pebbles: int, duct_width: float = 1.0) -> tuple[np.ndarray, float]:
    """Deterministic packed arrangement of `num_pebbles` sphere centers.

    Returns (centers (P, 3), radius).  Pebbles sit on a staggered
    lattice: square layers of 2x2 alternating with single-center
    layers (a BCC-like column packing), which both packs densely and
    guarantees no overlap.
    """
    if num_pebbles < 1:
        raise ValueError("need at least one pebble")
    w = duct_width
    # in-layer center spacing is 0.4w, so 2r must stay below that
    radius = 0.19 * w
    dz = 0.38 * w  # layer spacing; BCC-like offset keeps spheres apart
    centers = []
    layer = 0
    z = 0.45 * w
    while len(centers) < num_pebbles:
        if layer % 2 == 0:
            pts = [
                (0.3 * w, 0.3 * w),
                (0.7 * w, 0.3 * w),
                (0.3 * w, 0.7 * w),
                (0.7 * w, 0.7 * w),
            ]
        else:
            pts = [(0.5 * w, 0.5 * w)]
        for (cx, cy) in pts:
            if len(centers) >= num_pebbles:
                break
            centers.append((cx, cy, z))
        layer += 1
        z += dz
    return np.array(centers), radius


def _duct_height(num_pebbles: int, duct_width: float) -> float:
    centers, radius = pebble_centers(num_pebbles, duct_width)
    return float(centers[:, 2].max() + radius + 0.45 * duct_width)


def pebble_bed_case(
    num_pebbles: int = 146,
    elements_per_unit: int = 4,
    order: int = 5,
    inflow_velocity: float = 1.0,
    viscosity: float = 2e-2,
    dt: float = 2e-3,
    num_steps: int = 3000,
    brinkman_chi: float = 1e4,
    pebble_temperature: float = 1.0,
) -> CaseDefinition:
    """Build the pb146-analog case.

    `elements_per_unit` controls resolution (elements per duct width);
    the duct height — and so the element count — grows with the pebble
    count, which is how the benchmark harness scales the workload.
    """
    width = 1.0
    height = _duct_height(num_pebbles, width)
    centers, radius = pebble_centers(num_pebbles, width)

    ex = ey = max(2, int(round(elements_per_unit * width)))
    ez = max(2, int(round(elements_per_unit * height)))

    def chi(x, y, z):
        """Brinkman drag: brinkman_chi inside any pebble, 0 in fluid.

        A smooth tanh edge over ~one grid spacing keeps the penalty
        resolvable by the polynomial basis.
        """
        h = width / (ex * order)  # nominal grid spacing
        out = np.zeros_like(x)
        for cx, cy, cz in centers:
            r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2)
            out += 0.5 * (1.0 - np.tanh((r - radius) / h))
        return brinkman_chi * np.clip(out, 0.0, 1.0)

    def pebble_surface_temperature(x, y, z):
        """Initial condition: hot inside pebbles, cold coolant."""
        h = width / (ex * order)
        out = np.zeros_like(x)
        for cx, cy, cz in centers:
            r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2)
            out = np.maximum(out, 0.5 * (1.0 - np.tanh((r - radius) / h)))
        return pebble_temperature * out

    def heat_source(x, y, z):
        """Volumetric fission heating inside the pebbles."""
        h = width / (ex * order)
        out = np.zeros_like(x)
        for cx, cy, cz in centers:
            r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2)
            out = np.maximum(out, 0.5 * (1.0 - np.tanh((r - radius) / h)))
        return 5.0 * out

    inflow = VelocityBC(u=0.0, v=0.0, w=inflow_velocity)
    noslip = VelocityBC()

    return CaseDefinition(
        name=f"pb{num_pebbles}",
        mesh_shape=(ex, ey, ez),
        extent=((0.0, 0.0, 0.0), (width, width, height)),
        order=order,
        viscosity=viscosity,
        conductivity=viscosity,   # Pr = 1 coolant
        dt=dt,
        num_steps=num_steps,
        time_order=2,
        velocity_bcs={
            BoundaryTag.ZMIN: inflow,
            BoundaryTag.XMIN: noslip,
            BoundaryTag.XMAX: noslip,
            BoundaryTag.YMIN: noslip,
            BoundaryTag.YMAX: noslip,
        },
        pressure_dirichlet=(BoundaryTag.ZMAX,),
        temperature_bcs={BoundaryTag.ZMIN: ScalarBC(0.0)},
        initial_velocity=lambda x, y, z: (
            np.zeros_like(x),
            np.zeros_like(x),
            np.full_like(x, inflow_velocity),
        ),
        initial_temperature=pebble_surface_temperature,
        brinkman=chi,
        heat_source=heat_source,
    )
