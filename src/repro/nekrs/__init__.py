"""NekRS-analog incompressible thermal-fluid solver.

A faithful scaled-down counterpart of NekRS (Fischer et al. 2022):
spectral-element spatial discretization (``repro.sem``), a
P_N-P_N velocity-pressure splitting with BDF_k/EXT_k time integration,
implicit Helmholtz viscous/thermal solves, explicit extrapolated
advection, Boussinesq buoyancy, and Brinkman penalization for immersed
solid obstacles (how we embed the pebble bed into a box mesh).

The solver keeps its fields resident on a ``repro.occa`` device; in
situ consumers must copy them to the host through the device layer,
reproducing the GPU->CPU boundary the paper instruments.

Public surface:

- :class:`CaseDefinition` / :class:`FieldRegistry` — problem setup,
- :class:`NekRSSolver` — the time stepper,
- :func:`read_par` — NekRS-style .par case files,
- :mod:`repro.nekrs.checkpoint` — .fld-style binary checkpoints,
- :mod:`repro.nekrs.cases` — pb146-analog pebble bed, Rayleigh-Benard,
  lid-driven cavity.
"""

from repro.nekrs.config import CaseDefinition, PassiveScalar, VelocityBC, ScalarBC
from repro.nekrs.solver import NekRSSolver, StepReport
from repro.nekrs.timestepper import bdf_coefficients, ext_coefficients
from repro.nekrs.parfile import read_par, par_to_overrides

__all__ = [
    "CaseDefinition",
    "PassiveScalar",
    "VelocityBC",
    "ScalarBC",
    "NekRSSolver",
    "StepReport",
    "bdf_coefficients",
    "ext_coefficients",
    "read_par",
    "par_to_overrides",
]
