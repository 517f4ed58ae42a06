"""The incompressible Navier-Stokes time stepper (NekRS analog).

Discretization: P_N-P_N spectral elements with the classic splitting —

1. **temperature** (if active): BDF/EXT advection-diffusion solve,
2. **advection**: explicit EXT_k extrapolation of -(u.grad)u + f,
3. **pressure**: Poisson solve enforcing the divergence constraint on
   the extrapolated tentative velocity,
4. **viscous**: implicit Helmholtz solve per velocity component, with
   the Brinkman drag chi(x) u (immersed obstacles) folded into the
   zeroth-order implicit coefficient.

All linear solves are preconditioned CG over gather-scattered, masked
operators; inner products reduce across the communicator.  The pressure
Poisson solve is preconditioned by Jacobi plus a Galerkin vertex coarse
grid (:class:`repro.sem.coarse.CoarseGrid`), which removes the growth
of its iteration count with the number of elements across the domain;
the velocity, temperature and scalar Helmholtz solves are mass-dominated
(a handful of iterations) and keep diagonal Jacobi.  Each solve starts
from what the last steps know: pressure from the projection of its
right-hand side onto its last solutions (NekRS's ``residualProj``), the
Helmholtz solves from the EXT extrapolation of their field's history.

Fields live in ``repro.occa`` device buffers wrapping the solver's
arrays; the in situ layer must pull them through ``copy_to_host``,
which meters the GPU->CPU traffic the paper discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nekrs.config import CaseDefinition
from repro.nekrs.timestepper import bdf_coefficients, effective_order, ext_coefficients
from repro.observe.session import get_telemetry
from repro.occa import Device, DeviceMemory
from repro.parallel.comm import Communicator, ReduceOp
from repro.perf.arena import get_arena
from repro.perf.plans import get_plan_cache
from repro.sem.coarse import CoarseGrid
from repro.sem.krylov import ResidualProjection, cg_solve
from repro.sem.mesh import BoxMesh
from repro.sem.operators import SEMOperators
from repro.sem.quadrature import gll_nodes_weights
from repro.util.logging import get_logger


@dataclass
class StepReport:
    """Diagnostics for one completed timestep."""

    step: int
    time: float
    cfl: float
    pressure_iterations: int
    velocity_iterations: int
    scalar_iterations: int
    divergence_norm: float
    #: linear solves of this step that stopped without meeting their
    #: tolerance (iteration cap, or CG lost positive-definiteness)
    unconverged_solves: int = 0


def _bdf_sum(history: list, coeffs: tuple[float, ...], out: np.ndarray,
             tmp: np.ndarray) -> np.ndarray:
    """``out = sum_j coeffs[j] * history[-1-j]``, with `tmp` as scratch."""
    np.multiply(history[-1], coeffs[0], out=out)
    for j in range(1, len(coeffs)):
        np.multiply(history[-1 - j], coeffs[j], out=tmp)
        out += tmp
    return out


class NekRSSolver:
    """Time integrator for a :class:`CaseDefinition` on one rank group."""

    def __init__(
        self,
        case: CaseDefinition,
        comm: Communicator,
        device: Device | None = None,
    ):
        self.case = case
        self.comm = comm
        self.device = device or Device("serial")
        self.mesh = BoxMesh(
            case.mesh_shape,
            case.extent,
            order=case.order,
            periodic=case.periodic,
            rank=comm.rank,
            size=comm.size,
        )
        self.ops = SEMOperators(self.mesh, comm)

        shape = self.mesh.field_shape()
        x, y, z = self.mesh.coords()

        # -- persistent state ------------------------------------------------
        self.u = np.zeros(shape)
        self.v = np.zeros(shape)
        self.w = np.zeros(shape)
        self.p = np.zeros(shape)
        self.T = np.zeros(shape) if case.has_temperature else None
        if case.initial_velocity is not None:
            u0, v0, w0 = case.initial_velocity(x, y, z)
            self.u[:] = u0
            self.v[:] = v0
            self.w[:] = w0
        if self.T is not None and case.initial_temperature is not None:
            self.T[:] = case.initial_temperature(x, y, z)

        # histories for BDF (velocity/temperature) and EXT
        # (their advection terms)
        k = case.time_order
        self._hist_u: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._hist_T: list[np.ndarray] = []
        self._hist_adv: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._hist_advT: list[np.ndarray] = []
        self._max_hist = k

        # -- masks & boundary machinery ---------------------------------------
        vel_faces = list(case.velocity_bcs.keys())
        self.velocity_mask = ~self.mesh.boundary_union(vel_faces) if vel_faces else np.ones(shape, dtype=bool)
        self._vel_bc_nodes = ~self.velocity_mask
        self.pressure_mask = (
            ~self.mesh.boundary_union(case.pressure_dirichlet)
            if case.pressure_dirichlet
            else np.ones(shape, dtype=bool)
        )
        self.pressure_needs_mean_fix = len(case.pressure_dirichlet) == 0
        temp_faces = list(case.temperature_bcs.keys())
        self.temperature_mask = (
            ~self.mesh.boundary_union(temp_faces)
            if temp_faces
            else np.ones(shape, dtype=bool)
        )
        # each mask folded into its solve's gather-scatter
        gs = self.ops.gs
        self._vel_index = gs.masked_index(self.velocity_mask)
        self._pressure_index = gs.masked_index(self.pressure_mask)
        self._temp_index = gs.masked_index(self.temperature_mask)
        # constant Dirichlet values and the (steady) heat source do not
        # change from step to step: evaluated here, once
        self._vel_bc = self._steady_dirichlet(case.velocity_bcs, 3)
        self._temp_bc = self._steady_dirichlet(case.temperature_bcs, 1)
        self._heat_source = (
            None if case.heat_source is None
            else np.broadcast_to(case.heat_source(x, y, z), shape)
        )
        # an operator apply's local result and its masked gather-scatter,
        # which CG reads until the next apply: one pair for every solve
        self._apply_bufs = (np.empty(shape), np.empty(shape))

        # Brinkman penalty field (zero = fluid)
        if case.brinkman is not None:
            self.chi = np.asarray(case.brinkman(x, y, z), dtype=float)
            if self.chi.shape != shape:
                self.chi = np.broadcast_to(self.chi, shape).copy()
            if (self.chi < 0).any():
                raise ValueError("Brinkman penalty chi must be non-negative")
        else:
            self.chi = None

        # -- Helmholtz operators + preconditioners (depend on dt through
        # h0; built lazily) ----------------------------------------------------
        self._helmholtz_cache: dict[tuple, tuple] = {}
        self._pressure_pre: CoarseGrid | None = None
        # the last pressure solutions, the pressure solve's start
        self._pressure_proj = ResidualProjection(self.ops)
        self._warned_unconverged = False

        # minimum GLL spacing for CFL
        ref, _ = gll_nodes_weights(case.order)
        min_ref = float(np.diff(ref).min())
        self._min_dx = tuple(h * min_ref / 2.0 for h in self.mesh.elem_sizes)

        self.step_index = 0
        self.time = 0.0
        self._convect = (
            self.ops.convect_dealiased if case.dealias else self.ops.convect
        )

        # -- device residency -----------------------------------------------------
        self.device_fields: dict[str, DeviceMemory] = {
            "velocity_x": DeviceMemory(self.device, self.u),
            "velocity_y": DeviceMemory(self.device, self.v),
            "velocity_z": DeviceMemory(self.device, self.w),
            "pressure": DeviceMemory(self.device, self.p),
        }
        if self.T is not None:
            self.device_fields["temperature"] = DeviceMemory(self.device, self.T)

        # this rank's arena and plan cache, read live by its telemetry
        arena, plans = get_arena(), get_plan_cache()
        metrics = get_telemetry().metrics
        metrics.gauge("repro_perf_plan_cache_hits", "plan cache hits this rank",
                      agg="sum", read=lambda: plans.hits)
        metrics.gauge("repro_perf_plan_cache_misses",
                      "plan cache misses (plans built) this rank",
                      agg="sum", read=lambda: plans.misses)
        metrics.gauge("repro_perf_arena_hits",
                      "arena borrows served from the pool this rank",
                      agg="sum", read=lambda: arena.hits)
        metrics.gauge("repro_perf_arena_misses",
                      "arena borrows that allocated this rank",
                      agg="sum", read=lambda: arena.misses)
        metrics.gauge("repro_perf_arena_peak_borrowed_bytes",
                      "peak bytes simultaneously borrowed this rank",
                      agg="sum", read=lambda: arena.peak_borrowed_bytes)
        metrics.gauge("repro_perf_arena_pooled_bytes",
                      "bytes parked in the arena pool this rank",
                      agg="sum", read=arena.pooled_bytes)

    # ------------------------------------------------------------------
    # boundary conditions
    # ------------------------------------------------------------------
    def _dirichlet_fields(self, bcs: dict, n: int, t: float) -> list[np.ndarray]:
        """`n` fields (3 for velocity, 1 for a scalar) holding the values
        of `bcs` at time `t` on their faces, zero elsewhere; a later face
        wins a node two faces share."""
        x, y, z = self.mesh.coords()
        fields = [np.zeros(x.shape) for _ in range(n)]
        for tag, bc in bcs.items():
            values = bc.evaluate(x, y, z, t)
            nodes = self.mesh.boundary_nodes(tag)
            for field, value in zip(fields, values if n > 1 else (values,)):
                field[nodes] = value[nodes]
        return fields

    def _steady_dirichlet(self, bcs: dict, n: int) -> list[np.ndarray] | None:
        """:meth:`_dirichlet_fields` of `bcs` if every face is constant
        (treat as read-only), else None: evaluate them every step."""
        if all(bc.constant for bc in bcs.values()):
            return self._dirichlet_fields(bcs, n, 0.0)
        return None

    # ------------------------------------------------------------------
    # linear solves
    # ------------------------------------------------------------------
    def _helmholtz_operator(self, h1: float, h0, mask: np.ndarray,
                            key: tuple) -> tuple:
        """The factored weights of (h1 A + h0 B) and the inverse diagonal
        of its masked assembly (Jacobi), built once per value key.

        `key` must encode everything that varies (field, the exact
        scalar part of h0): the Brinkman h0 is a new array every step
        with the same values, so the cache is keyed by value, which
        keeps it exact and bounded.
        """
        cache_key = (key, float(h1))
        entry = self._helmholtz_cache.get(cache_key)
        if entry is None:
            diag = self.ops.stiffness_diagonal(h1, h0)
            pre = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 0.0)
            pre *= mask
            entry = (self.ops.helmholtz_weights(h1, h0), pre)
            self._helmholtz_cache[cache_key] = entry
        return entry

    def _pressure_preconditioner(self):
        """The pressure solve's ``precond``: Jacobi + vertex coarse grid."""
        if self._pressure_pre is None:
            self._pressure_pre = CoarseGrid(
                self.ops,
                self.pressure_mask,
                self._helmholtz_operator(
                    1.0, 0.0, self.pressure_mask, ("pressure",)
                )[1],
            )
        return self._pressure_pre

    def _helmholtz_solve(
        self,
        rhs_local: np.ndarray,
        lift: np.ndarray,
        h1: float,
        h0,
        mask: np.ndarray,
        index: np.ndarray,
        tol: float,
        key: tuple,
        history: list[np.ndarray],
        a: tuple[float, ...],
        out: np.ndarray,
    ):
        """Solve (h1 A + h0 B) x = rhs with Dirichlet values in `lift`
        into `out`, starting from the homogeneous part of the EXT
        extrapolation ``sum_j a[j] * history[-1-j]`` of the field's last
        steps.  `index` is ``gs.masked_index(mask)``."""
        arena = get_arena()
        weights, pre = self._helmholtz_operator(h1, h0, mask, key)
        local, assembled = self._apply_bufs

        def apply_masked(f):
            self.ops.helmholtz_apply(f, h1, h0, out=local, weights=weights)
            return self.ops.assemble(local, out=assembled, index=index)

        with arena.scratch(rhs_local.shape, rhs_local.dtype, n=2) as (b, x0):
            self.ops.helmholtz_apply(lift, h1, h0, out=local, weights=weights)
            np.subtract(rhs_local, local, out=local)
            self.ops.assemble(local, out=b, index=index)
            _bdf_sum(history, a, x0, local)
            x0 *= mask
            result = cg_solve(
                apply_masked,
                b,
                self.ops.dot,
                precond=pre,
                x0=x0,
                tol=tol,
                max_iterations=self.case.max_iterations,
            )
        np.add(result.x, lift, out=out)
        return result

    # ------------------------------------------------------------------
    # physics terms
    # ------------------------------------------------------------------
    def _advection_terms(self, t: float):
        """-(u.grad)u + f at the current state (pointwise)."""
        # the terms escape into the EXT history, so they are real
        # allocations; negating in place halves the temporaries
        Nx = self._convect(self.u, self.u, self.v, self.w)
        np.negative(Nx, out=Nx)
        Ny = self._convect(self.v, self.u, self.v, self.w)
        np.negative(Ny, out=Ny)
        Nz = self._convect(self.w, self.u, self.v, self.w)
        np.negative(Nz, out=Nz)
        if self.case.forcing is not None:
            x, y, z = self.mesh.coords()
            fx, fy, fz = self.case.forcing(x, y, z, t, self.T)
            Nx += fx
            Ny += fy
            Nz += fz
        return Nx, Ny, Nz

    def _advection_term_T(self) -> np.ndarray:
        NT = self._convect(self.T, self.u, self.v, self.w)
        np.negative(NT, out=NT)
        if self._heat_source is not None:
            NT += self._heat_source
        return NT

    # ------------------------------------------------------------------
    # main step
    # ------------------------------------------------------------------
    def step(self) -> StepReport:
        """Advance one timestep; returns diagnostics."""
        tel = get_telemetry()
        # tagged with the step this call produces (StepReport.step)
        with tel.tracer.span(
            "solver.step", step=self.step_index + 1, stage="solve",
            stream=self.comm.rank,
        ) as span:
            report = self._step_impl(tel)
        if tel.enabled:
            tel.metrics.counter(
                "repro_solver_steps_total", "Completed solver timesteps"
            ).inc()
            tel.metrics.histogram(
                "repro_solver_step_seconds", "Wall time per solver timestep"
            ).observe(span.dur)
            tel.metrics.gauge(
                "repro_solver_cfl", "Advective CFL of the latest step", agg="max"
            ).set(report.cfl)
            tel.metrics.histogram(
                "repro_solver_pressure_iterations",
                "Pressure CG iterations per timestep",
                buckets=(10, 20, 40, 80, 160, 320, 640),
            ).observe(report.pressure_iterations)
            tel.metrics.counter(
                "repro_solver_unconverged_solves_total",
                "Linear solves that stopped short of their tolerance",
            ).inc(report.unconverged_solves)
            tel.memory.observe("solver", self.memory_bytes())
        return report

    def _step_impl(self, tel) -> StepReport:
        case = self.case
        dt = case.dt
        t_new = self.time + dt

        order = effective_order(case.time_order, self.step_index)
        b0, b = bdf_coefficients(order)
        a = ext_coefficients(order)

        # record current state into histories before overwriting
        self._hist_u.append((self.u.copy(), self.v.copy(), self.w.copy()))
        if self.T is not None:
            self._hist_T.append(self.T.copy())

        # ---- temperature ---------------------------------------------------
        arena = get_arena()
        shape = self.mesh.field_shape()
        scalar_iters = 0
        unconverged = 0
        if self.T is not None:
            with tel.tracer.span("solver.scalar"), \
                    arena.scratch(shape, n=3) as (rhs, ext, tmp):
                self._hist_advT.append(self._advection_term_T())
                rho_cp = case.density * case.heat_capacity
                h0 = rho_cp * b0 / dt
                # rho_cp (T_hat / dt + NT_ext), times B
                _bdf_sum(self._hist_advT, a, ext, tmp)
                _bdf_sum(self._hist_T, b, rhs, tmp)
                rhs /= dt
                rhs += ext
                rhs *= rho_cp
                self.ops.mass_apply(rhs, out=rhs)
                (Tb,) = self._temp_bc or self._dirichlet_fields(
                    case.temperature_bcs, 1, t_new
                )
                result = self._helmholtz_solve(
                    rhs,
                    Tb,
                    case.conductivity,
                    h0,
                    self.temperature_mask,
                    self._temp_index,
                    case.scalar_tol,
                    ("temperature", h0),
                    self._hist_T,
                    a,
                    self.T,
                )
                scalar_iters = result.iterations
                unconverged += not result.converged

        # the tentative velocity lives only inside this step: borrow it
        # from the per-rank arena
        us, vs, ws = (arena.borrow(shape) for _ in range(3))
        try:
            # ---- advection / tentative velocity -----------------------------
            with tel.tracer.span("solver.advection"), \
                    arena.scratch(shape, n=2) as (hat, tmp):
                self._hist_adv.append(self._advection_terms(self.time))
                # (N_ext dt + u_hat) / b0, per component
                for i, star in enumerate((us, vs, ws)):
                    _bdf_sum([h[i] for h in self._hist_adv], a, hat, tmp)
                    np.multiply(hat, dt, out=star)
                    _bdf_sum([h[i] for h in self._hist_u], b, hat, tmp)
                    star += hat
                    star /= b0
                # embed Dirichlet values so the pressure sees inflow flux
                ub, vb, wb = self._vel_bc or self._dirichlet_fields(
                    case.velocity_bcs, 3, t_new
                )
                bc_nodes = self._vel_bc_nodes
                np.copyto(us, ub, where=bc_nodes)
                np.copyto(vs, vb, where=bc_nodes)
                np.copyto(ws, wb, where=bc_nodes)

            # ---- pressure Poisson -------------------------------------------
            with tel.tracer.span("solver.pressure"), \
                    arena.scratch(shape, n=2) as (rp, x0buf):
                local, assembled = self._apply_bufs
                self.ops.div(us, vs, ws, out=local)
                local *= -(b0 / dt)
                self.ops.mass_apply(local, out=local)
                self.ops.assemble(local, out=rp, index=self._pressure_index)
                project = (
                    self.ops.project_out_nullspace
                    if self.pressure_needs_mean_fix
                    else None
                )

                def apply_pressure(f):
                    self.ops.stiffness_apply(f, out=local)
                    return self.ops.assemble(
                        local, out=assembled, index=self._pressure_index
                    )

                guess = self._pressure_proj.guess(rp, out=x0buf)
                pres = cg_solve(
                    apply_pressure,
                    rp,
                    self.ops.dot,
                    precond=self._pressure_preconditioner(),
                    x0=guess,
                    tol=case.pressure_tol,
                    max_iterations=case.max_iterations,
                    project_nullspace=project,
                )
                self._pressure_proj.update(
                    pres.x, apply_pressure, project, guess=guess
                )
                self.p[:] = pres.x
                unconverged += not pres.converged
                with arena.scratch(shape, n=3) as (px, py, pz):
                    self.ops.grad(self.ops.continuize(self.p), out=(px, py, pz))
                    scale = dt / b0
                    for star, g in ((us, px), (vs, py), (ws, pz)):
                        g *= scale
                        star -= g

            # ---- viscous Helmholtz solves -----------------------------------
            with tel.tracer.span("solver.viscous"), \
                    arena.scratch(shape) as rhs:
                h0_scalar = case.density * b0 / dt
                h0 = h0_scalar if self.chi is None else h0_scalar + self.chi
                vel_iters = 0
                vel_key = ("velocity", h0_scalar)
                rho_b0_dt = case.density * (b0 / dt)
                for i, (star, lift, field) in enumerate(
                    ((us, ub, self.u), (vs, vb, self.v), (ws, wb, self.w))
                ):
                    np.multiply(star, rho_b0_dt, out=rhs)
                    self.ops.mass_apply(rhs, out=rhs)
                    # the components solve independently, so each
                    # lands in its field at once
                    result = self._helmholtz_solve(
                        rhs,
                        lift,
                        case.viscosity,
                        h0,
                        self.velocity_mask,
                        self._vel_index,
                        case.velocity_tol,
                        vel_key,
                        [h[i] for h in self._hist_u],
                        a,
                        field,
                    )
                    vel_iters += result.iterations
                    unconverged += not result.converged
        finally:
            arena.release(us, vs, ws)

        # ---- bookkeeping -----------------------------------------------------
        for hist in (self._hist_u, self._hist_T, self._hist_adv, self._hist_advT):
            while len(hist) > self._max_hist:
                hist.pop(0)

        self.step_index += 1
        self.time = t_new

        with arena.scratch(shape) as div_now:
            self.ops.div(self.u, self.v, self.w, out=div_now)
            div_norm = self.ops.norm(div_now)
        cfl = self.cfl()
        if unconverged and not self._warned_unconverged:
            self._warned_unconverged = True
            get_logger("repro.nekrs.solver", self.comm).warning(
                "step %d: %d linear solve(s) stopped before reaching tolerance "
                "(max_iterations=%d); StepReport.unconverged_solves counts them "
                "from here on",
                self.step_index, unconverged, case.max_iterations,
            )
        return StepReport(
            step=self.step_index,
            time=self.time,
            cfl=cfl,
            pressure_iterations=pres.iterations,
            velocity_iterations=vel_iters,
            scalar_iterations=scalar_iters,
            divergence_norm=div_norm,
            unconverged_solves=unconverged,
        )

    def run(self, num_steps: int | None = None, observer=None) -> list[StepReport]:
        """Advance `num_steps` (default: the case's) steps.

        `observer(solver, report)` is called after every step — this is
        the hook the SENSEI bridge attaches to.  An observer returning
        ``False`` (SENSEI's stop protocol: a guard tripped, or a
        steering client commanded stop) halts the run at that step
        boundary; any other return value keeps stepping.
        """
        n = self.case.num_steps if num_steps is None else num_steps
        reports = []
        for _ in range(n):
            report = self.step()
            reports.append(report)
            if observer is not None and observer(self, report) is False:
                break
        return reports

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def cfl(self) -> float:
        """Global advective CFL number of the current state."""
        with get_arena().scratch(self.u.shape, n=2) as (dxi, tmp):
            np.abs(self.u, out=dxi)
            dxi /= self._min_dx[0]
            np.abs(self.v, out=tmp)
            tmp /= self._min_dx[1]
            dxi += tmp
            np.abs(self.w, out=tmp)
            tmp /= self._min_dx[2]
            dxi += tmp
            local = float(dxi.max()) * self.case.dt if dxi.size else 0.0
        return float(self.comm.allreduce(local, ReduceOp.MAX))

    def kinetic_energy(self) -> float:
        """Global volume-integrated kinetic energy."""
        ke = 0.5 * (self.u**2 + self.v**2 + self.w**2)
        return self.ops.integrate(ke)

    def memory_bytes(self) -> int:
        """Bytes held in persistent solver state on this rank."""
        total = sum(
            f.nbytes
            for f in (self.u, self.v, self.w, self.p)
        )
        if self.T is not None:
            total += self.T.nbytes
        for hist in (self._hist_u, self._hist_adv):
            for entry in hist:
                total += sum(f.nbytes for f in entry)
        for hist in (self._hist_T, self._hist_advT):
            for entry in hist:
                total += entry.nbytes
        if self.chi is not None:
            total += self.chi.nbytes
        total += self._pressure_proj.basis.nbytes
        # mesh coordinates + geometric factors + numbering
        total += self.mesh.x.nbytes * 3
        total += self.ops.geom.mass.nbytes
        total += self.mesh.global_ids.nbytes
        return total

    def local_gridpoints(self) -> int:
        return int(np.prod(self.mesh.field_shape()))
