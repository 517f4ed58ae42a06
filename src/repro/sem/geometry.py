"""Geometric factors for SEM operators.

For each element the mapping from the reference cube [-1,1]^3 to
physical space yields the Jacobian J and the metric derivatives
(dr/dx, ds/dy, dt/dz).  BoxMesh elements are the same axis-aligned
box, so the metric tensor is diagonal and one constant for the whole
mesh: the uniform box's constants are ``np.float64`` scalars, which
broadcast into products bit for bit without holding a field each, and
the stiffness operator is built from them in factored form
(:mod:`repro.sem.operators`).

Stored array (shaped like fields, ``(E, Nq, Nq, Nq)``):

``mass``
    w3d * J — the diagonal lumped mass matrix ("B" in Nek).

Stored scalars:

``rx, sy, tz``
    metric derivatives for chain-rule physical gradients.
``jacobian``
    J, the element volume over the reference cube's.
"""

from __future__ import annotations

import numpy as np

from repro.sem.mesh import BoxMesh


class GeometricFactors:
    def __init__(self, mesh: BoxMesh):
        self.mesh = mesh
        w = mesh.weights_1d
        w3d = w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]

        hx, hy, hz = mesh.elem_sizes
        jac = (hx / 2.0) * (hy / 2.0) * (hz / 2.0)
        shape = mesh.field_shape()

        self.jacobian = np.float64(jac)
        self.mass = np.broadcast_to(w3d * jac, shape).copy()

        rx, sy, tz = 2.0 / hx, 2.0 / hy, 2.0 / hz
        self.rx, self.sy, self.tz = np.float64(rx), np.float64(sy), np.float64(tz)

    @property
    def total_volume_local(self) -> float:
        """Sum of quadrature weights = volume of the local elements."""
        return float(self.mass.sum())
