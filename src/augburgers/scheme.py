"""Semi-discrete right-hand side, stability bound and explicit time stepping.

Per cell j (zero extension outside the grid) the right-hand side is

    (g_{j+1/2} - g_{j-1/2})/dx
    + nu * (u_{j-1} - 2 u_j + u_{j+1})/dx^2
    + (c/theta^2) * (sum_{m=1..N} w_m u_{j-m} - M0 * u_j)
    + (c/theta)   * M1 * (u_{j+1} - u_j)/dx,

where (M0, M1) are the truncated kernel moments in CORRECTED mode and
(1, 1) in NAIVE mode.  The (c/theta^2), (c/theta) prefactors come from
rewriting the memory term ``c K * u_xx`` as
``(c/theta^2)(K * u - u) + (c/theta) u_x``; all four spatial terms telescope,
so total mass is conserved exactly in CORRECTED mode for interior-supported
data.

Forward Euler stepping is stable (monotone) when

    dt * ( max_j |u_j|/dx + 2 nu/dx^2 + (c/theta^2) * sum (m+1) w_m ) <= 1.

The memory sum is the paper's direct truncated sum, evaluated as one
``np.convolve`` of the cell values with the quadrature weights; the face
fluxes come from :mod:`augburgers.flux`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .flux import FluxKind, eo_flux, mlf_flux
from .grid import Grid, GridFunction, norm
from .kernel import KernelQuadrature

__all__ = [
    "CorrectorMode",
    "PhysicalParams",
    "SchemeConfig",
    "SolverState",
    "StepReport",
    "RunRecord",
    "StabilityError",
    "SolverAbort",
    "DEFAULT_DT_MAX",
    "rhs",
    "stable_dt",
    "step_euler",
    "run",
    "run_lockstep",
    "rescale",
]

# Cap on the adaptive step so a decayed solution does not take huge steps.
DEFAULT_DT_MAX = 0.5

# Cells inspected on each side by the boundary-contact monitor.
_BOUNDARY_CELLS = 10
_BOUNDARY_FRACTION = 1e-10


class StabilityError(RuntimeError):
    """A requested time step exceeds the explicit stability bound."""


class SolverAbort(RuntimeError):
    """The solution left the finite range (NaN/Inf); the run cannot continue."""


class CorrectorMode(Enum):
    # CORRECTED multiplies the local terms by the truncated kernel moments;
    # NAIVE pretends the truncation is exact (factors 1), which breaks exact
    # mass balance and adds a spurious drift.
    CORRECTED = "corrected"
    NAIVE = "naive"


@dataclass(frozen=True)
class PhysicalParams:
    """Equation coefficients: viscosity ``nu``, relaxation strength ``c``
    and relaxation time ``theta``.

    ``nu`` and ``c`` are nonnegative with ``nu + c > 0`` (at most one may
    vanish, for ablations); ``theta`` is positive.
    """

    nu: float
    c: float
    theta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        if not self.nu + self.c > 0.0:
            raise ValueError("nu + c must be positive")
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices: flux, kernel quadrature, corrector mode, grid."""

    flux: FluxKind
    quadrature: KernelQuadrature
    corrector_mode: CorrectorMode
    grid: Grid

    def __post_init__(self) -> None:
        qdx = self.quadrature.dx
        gdx = self.grid.dx
        if abs(qdx - gdx) > 1e-12 * max(qdx, gdx):
            raise ValueError(
                f"quadrature mesh size {qdx!r} does not match grid dx {gdx!r}"
            )

    def corrector_factors(self) -> tuple[float, float]:
        if self.corrector_mode is CorrectorMode.CORRECTED:
            return self.quadrature.moment0, self.quadrature.moment1
        return 1.0, 1.0


@dataclass
class SolverState:
    """Simulation time and current grid function."""

    t: float
    u: GridFunction

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")


@dataclass(frozen=True)
class StepReport:
    t: float
    dt_used: float
    mass_after: float
    l1: float
    l2: float
    linf: float

    def __post_init__(self) -> None:
        if not self.dt_used > 0.0:
            raise ValueError("dt_used must be positive")


@dataclass
class RunRecord:
    """Snapshots, per-step reports and the complete parameter manifest of a run."""

    snapshots: list[tuple[float, GridFunction]]
    manifest: dict
    step_reports: list[StepReport] = field(default_factory=list)
    aborted: bool = False


def rhs(
    state: SolverState,
    params: PhysicalParams,
    config: SchemeConfig,
    dt_ref: float | None = None,
) -> GridFunction:
    """Evaluate the semi-discrete right-hand side at the current state.

    ``dt_ref`` is required for the modified Lax-Friedrichs flux, whose
    dissipation is tied to the current time step.
    """
    if state.u.grid is not config.grid and state.u.grid != config.grid:
        raise ValueError("state grid does not match scheme configuration grid")
    u = state.u.values
    n = u.shape[0]
    dx = config.grid.dx
    m0, m1 = config.corrector_factors()

    upad = np.zeros(n + 2)
    upad[1:-1] = u
    left, right = upad[:-1], upad[1:]
    if config.flux is FluxKind.MODIFIED_LAX_FRIEDRICHS:
        if dt_ref is None or not dt_ref > 0.0:
            raise ValueError(
                "the modified Lax-Friedrichs flux needs a positive dt_ref"
            )
        g = mlf_flux(left, right, dx, dt_ref)
    else:
        g = eo_flux(left, right)

    # conv_j = sum_{m=1..N} w_m u_{j-m}: the full convolution shifted by one cell.
    conv = np.zeros(n)
    conv[1:] = np.convolve(u, config.quadrature.weights)[: n - 1]

    vals = (g[1:] - g[:-1]) / dx + (params.nu / (dx * dx)) * (
        (upad[:-2] - 2.0 * u) + upad[2:]
    )
    vals += (params.c / (params.theta * params.theta)) * (conv - m0 * u)
    vals += (params.c * m1 / (params.theta * dx)) * (upad[2:] - u)
    if not np.isfinite(vals).all():
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise SolverAbort(
            f"right-hand side is not finite in cell {bad} at t = {state.t!r}"
        )
    return GridFunction.from_checked(config.grid, vals)


def _dt_denominator(u_values: np.ndarray, params: PhysicalParams, config: SchemeConfig) -> float:
    dx = config.grid.dx
    umax = float(np.abs(u_values).max(initial=0.0))
    return (
        umax / dx
        + 2.0 * params.nu / (dx * dx)
        + (params.c / (params.theta * params.theta)) * config.quadrature.stability_sum
    )


def _flux_headroom(config: SchemeConfig) -> float:
    # The modified Lax-Friedrichs flux spends half the diagonal slack on its
    # own dx/(4 dt) dissipation, so its monotone step bound is half the
    # Engquist-Osher one.
    if config.flux is FluxKind.MODIFIED_LAX_FRIEDRICHS:
        return 0.5
    return 1.0


def stable_dt(
    state: SolverState,
    params: PhysicalParams,
    config: SchemeConfig,
    safety: float,
    dt_max: float = DEFAULT_DT_MAX,
) -> float:
    """Largest admissible explicit step times ``safety``, capped at ``dt_max``.

    The bound is ``safety / (max|u_j|/dx + 2 nu/dx^2 + (c/theta^2) sum (m+1) w_m)``
    and is recomputed from the current state, so the step adapts as the
    solution decays.  For the modified Lax-Friedrichs flux the bound is
    halved: its built-in dissipation adds ``1/(2 dt)`` to the diagonal of the
    update, which consumes half the stability slack.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    if not dt_max > 0.0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    denom = _dt_denominator(state.u.values, params, config)
    if denom <= 0.0:
        return dt_max
    return min(_flux_headroom(config) * safety / denom, dt_max)


def _norms_report(t: float, dt: float, u: GridFunction) -> StepReport:
    # One |u| pass and pairwise np.sum reductions: accurate to O(eps log n),
    # far inside the 1e-12 monotonicity and 1e-8 mass tolerances.
    # math.fsum costs 100x more once the tail decays into subnormals, so
    # exactly rounded sums are left to grid.norm and grid.mass, which
    # snapshot analysis uses.
    dx = u.grid.dx
    av = np.abs(u.values)
    return StepReport(
        t=t,
        dt_used=dt,
        mass_after=dx * float(np.sum(u.values)),
        l1=dx * float(np.sum(av)),
        l2=math.sqrt(dx * float(np.sum(av * av))),
        linf=float(av.max(initial=0.0)),
    )


def step_euler(
    state: SolverState,
    params: PhysicalParams,
    config: SchemeConfig,
    dt: float,
) -> tuple[SolverState, StepReport]:
    """One forward-Euler step ``u <- u + dt * rhs(u)``.

    A step beyond the stability bound is rejected outright, never clipped.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    denom = _dt_denominator(state.u.values, params, config)
    bound = _flux_headroom(config) / denom if denom > 0.0 else math.inf
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt = {dt!r} exceeds the stability bound {bound!r}")
    r = rhs(state, params, config, dt_ref=dt)
    # rhs has checked its own values; a finite rhs can still overflow the
    # update, so the new state gets the step's one other finiteness pass.
    new_vals = state.u.values + dt * r.values
    if not np.isfinite(new_vals).all():
        bad = int(np.flatnonzero(~np.isfinite(new_vals))[0])
        raise SolverAbort(
            f"non-finite value in cell {bad} after step at t = {state.t!r}"
        )
    new_u = GridFunction.from_checked(config.grid, new_vals)
    new_t = state.t + dt
    return SolverState(new_t, new_u), _norms_report(new_t, dt, new_u)


def _base_manifest(
    params: PhysicalParams,
    config: SchemeConfig,
    safety: float,
    dt_max: float,
    fixed_dt: float | None,
    t_end: float,
) -> dict:
    quad = config.quadrature
    return {
        "nu": params.nu,
        "c": params.c,
        "theta": params.theta,
        "dx": config.grid.dx,
        "x_left": config.grid.x_left,
        "x_right": config.grid.x_right,
        "num_cells": config.grid.num_cells,
        "flux": config.flux.value,
        "corrector_mode": config.corrector_mode.value,
        "n_terms": quad.n_terms,
        "moment0": quad.moment0,
        "moment1": quad.moment1,
        "moment2": quad.moment2,
        "stability_sum": quad.stability_sum,
        "safety": safety,
        "dt_max": dt_max,
        "dt_policy": "fixed" if fixed_dt is not None else "adaptive",
        "fixed_dt": fixed_dt if fixed_dt is not None else "",
        "t_end": t_end,
    }


def _boundary_contact(u: GridFunction, u0_linf: float) -> bool:
    k = min(_BOUNDARY_CELLS, u.grid.num_cells // 2)
    edge = max(
        float(np.abs(u.values[:k]).max(initial=0.0)),
        float(np.abs(u.values[-k:]).max(initial=0.0)),
    )
    return edge > _BOUNDARY_FRACTION * u0_linf


def run(
    initial: GridFunction,
    params: PhysicalParams,
    config: SchemeConfig,
    t_end: float,
    snapshot_times: Sequence[float] = (),
    safety: float = 0.9,
    dt_max: float = DEFAULT_DT_MAX,
    fixed_dt: float | None = None,
    report_every: int = 1,
) -> RunRecord:
    """Advance from ``initial`` to ``t_end``, landing exactly on snapshot times.

    The step is ``min(stable_dt, dt_max, gap to the next snapshot)``; with
    ``fixed_dt`` the step is constant and still validated against the
    stability bound.  Snapshots store copies of the state at exactly the
    requested times.  If the state leaves the finite range the run aborts,
    keeping the last good snapshot and flagging the record.
    """
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if report_every < 1:
        raise ValueError("report_every must be >= 1")
    snaps = sorted(set(float(s) for s in snapshot_times))
    for s in snaps:
        if s <= 0.0 or s > t_end:
            raise ValueError(
                f"snapshot time {s!r} outside (0, t_end = {t_end!r}]"
            )
    if t_end > 0.0 and (not snaps or snaps[-1] != t_end):
        snaps.append(t_end)

    record = RunRecord(
        snapshots=[(0.0, initial.copy())],
        manifest=_base_manifest(params, config, safety, dt_max, fixed_dt, t_end),
        step_reports=[],
    )
    record.manifest["boundary_warning"] = False
    record.manifest["aborted"] = False
    u0_linf = norm(initial, math.inf)

    state = SolverState(0.0, initial.copy())
    step_count = 0
    for target in snaps:
        while state.t < target:
            gap = target - state.t
            if fixed_dt is not None:
                dt = min(fixed_dt, gap)
            else:
                dt = min(stable_dt(state, params, config, safety, dt_max), gap)
            lands = dt >= gap * (1.0 - 1e-14)
            if lands:
                dt = gap
            try:
                state, report = step_euler(state, params, config, dt)
            except SolverAbort:
                record.aborted = True
                record.manifest["aborted"] = True
                record.snapshots.append((state.t, state.u.copy()))
                return record
            if lands:
                state = SolverState(target, state.u)
                report = replace(report, t=target)
            step_count += 1
            if step_count % report_every == 0:
                record.step_reports.append(report)
        record.snapshots.append((target, state.u.copy()))
        if u0_linf > 0.0 and not record.manifest["boundary_warning"]:
            if _boundary_contact(state.u, u0_linf):
                record.manifest["boundary_warning"] = True
                warnings.warn(
                    f"solution reached the domain boundary by t = {target!r}; "
                    "enlarge the domain for trustworthy long-time results",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return record


def run_lockstep(
    initials: Sequence[GridFunction],
    params: PhysicalParams,
    config: SchemeConfig,
    t_end: float,
    safety: float = 0.9,
    dt_max: float = DEFAULT_DT_MAX,
    observer: Callable[[float, list[SolverState]], None] | None = None,
) -> list[SolverState]:
    """Advance several states with one shared dt sequence.

    Each step uses the most restrictive stability bound across the states, so
    comparison properties that require identical time grids (contraction,
    order preservation) are meaningful.  ``observer`` is called after every
    step with the common time and the list of states.
    """
    if not initials:
        raise ValueError("need at least one initial state")
    states = [SolverState(0.0, u.copy()) for u in initials]
    t = 0.0
    while t < t_end:
        dt = min(
            min(stable_dt(s, params, config, safety, dt_max) for s in states),
            t_end - t,
        )
        states = [step_euler(s, params, config, dt)[0] for s in states]
        t = states[0].t
        if observer is not None:
            observer(t, states)
    return states


def rescale(w: GridFunction, mu: float) -> GridFunction:
    """Parabolic rescaling: values scaled by ``mu`` on a grid shrunk by ``mu``.

    Represents ``mu * u(mu^2 t, mu x)``: mass is preserved and the L^p norm
    scales by ``mu^(1 - 1/p)``.
    """
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    g = w.grid
    new_grid = Grid(
        x_left=g.x_left / mu,
        x_right=g.x_right / mu,
        dx=g.dx / mu,
        num_cells=g.num_cells,
    )
    return GridFunction(new_grid, mu * w.values)
