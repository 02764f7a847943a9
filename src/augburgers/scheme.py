"""Semi-discrete right-hand side, stability bound and explicit time stepping.

Per cell j (zero extension outside the grid) the right-hand side is

    (g_{j+1/2} - g_{j-1/2})/dx
    + nu * (u_{j-1} - 2 u_j + u_{j+1})/dx^2
    + (c/theta^2) * (sum_{m=1..N} w_m u_{j-m} - M0 * u_j)
    + (c/theta)   * M1 * (u_{j+1} - u_j)/dx,

where g is a two-point flux consistent with u^2/2 (:class:`FluxKind`):
Engquist-Osher ``g(a, b) = a(a-|a|)/4 + b(b+|b|)/4``, the monotone flux the
scheme is built around, or modified Lax-Friedrichs
``g(a, b) = (a^2 + b^2)/4 + dx (b - a)/(4 dt)``, the over-diffusive
comparator.  (M0, M1) are the truncated kernel moments in CORRECTED mode and
(1, 1) in NAIVE mode, and theta is the kernel quadrature's, the one place it
is stored.  The (c/theta^2), (c/theta) prefactors come from
rewriting the memory term ``c K * u_xx`` as
``(c/theta^2)(K * u - u) + (c/theta) u_x``; all four spatial terms telescope,
so total mass is conserved exactly in CORRECTED mode for interior-supported
data.

Forward Euler stepping is stable (monotone) when

    dt * ( max_j |u_j|/dx + 2 nu/dx^2 + (c/theta^2) * sum (m+1) w_m ) <= 1.

The weights are geometric, ``w_m = p q^(m-1)`` with ``q = exp(-dx/theta)``
and ``p = 1 - q``, so the memory sum ``S_j = sum_{m<=N} w_m u_{j-m}`` follows
the exact recurrence (recursive convolution)

    E_j = q E_{j-1} + p u_{j-1},        S_j = E_j - q^N E_{j-N},

in O(n) work at any N; the subtraction drops out where N is at least the
window.  It runs blocked, as products with triangular Toeplitz matrices that
:class:`SchemeConfig` builds once.  The other terms are differences of one
face flux, plus ``-M0 u_j`` (see :func:`rhs`).  Cells left of the first
nonzero cell less one are skipped: their right-hand side is exactly 0.0.
A :class:`SolverState` takes ``max|u|`` once, when it is built: that one
reduction is both its finiteness check and the bound of its next step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .grid import Grid, GridFunction, norm
from .kernel import KernelQuadrature

__all__ = [
    "FluxKind",
    "CorrectorMode",
    "PhysicalParams",
    "SchemeConfig",
    "SolverState",
    "RunRecord",
    "StabilityError",
    "SolverAbort",
    "DEFAULT_DT_MAX",
    "rhs",
    "stable_dt",
    "step_euler",
    "march",
    "run",
]

# Cap on the adaptive step so a decayed solution does not take huge steps.
DEFAULT_DT_MAX = 0.5

# Cells per block of the blocked memory recurrence.
_BLOCK = 32

# Cells inspected on each side by the boundary-contact monitor.
_BOUNDARY_CELLS = 10
_BOUNDARY_FRACTION = 1e-10


class StabilityError(RuntimeError):
    """A requested time step exceeds the explicit stability bound."""


class SolverAbort(RuntimeError):
    """The solution left the finite range (NaN/Inf); the run cannot continue."""


class FluxKind(Enum):
    # The modified Lax-Friedrichs dissipation is a discrete viscosity
    # dx^2/(4 dt), which wrecks the large-time behavior when the physical
    # coefficients are small.
    ENGQUIST_OSHER = "eo"
    MODIFIED_LAX_FRIEDRICHS = "mlf"


class CorrectorMode(Enum):
    # CORRECTED multiplies the local terms by the truncated kernel moments;
    # NAIVE pretends the truncation is exact (factors 1), which breaks exact
    # mass balance and adds a spurious drift.
    CORRECTED = "corrected"
    NAIVE = "naive"


@dataclass(frozen=True)
class PhysicalParams:
    """Equation coefficients: viscosity ``nu`` and relaxation strength ``c``.

    Both are nonnegative with ``nu + c > 0`` (at most one may vanish, for
    ablations).  The relaxation time theta is the kernel quadrature's
    (``SchemeConfig.quadrature.theta``), so it is stored once.
    """

    nu: float
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")
        if not (math.isfinite(self.c) and self.c >= 0.0):
            raise ValueError(f"c must be finite and >= 0, got {self.c}")
        if not self.nu + self.c > 0.0:
            raise ValueError("nu + c must be positive")


def _block_level(span: float) -> tuple[np.ndarray, np.ndarray]:
    """``(T, e)`` for ``y_j = exp(-span) y_{j-1} + x_j`` on a block of inputs:
    ``T[k, i] = exp(-(i - k) span)`` for ``k <= i``, else 0, gives the
    block's outputs from a zero start, ``e[k] = exp(-(_BLOCK - k) span)``
    its last output times ``exp(-span)``."""
    d = np.arange(_BLOCK, dtype=np.float64)
    lag = d[None, :] - d[:, None]
    t = np.exp(-np.where(lag >= 0.0, lag, np.inf) * span)
    e = np.exp(-(_BLOCK - d) * span)
    t.setflags(write=False)
    e.setflags(write=False)
    return t, e


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices: flux, kernel quadrature, corrector mode, grid.

    ``blocks`` holds the constants of the blocked memory recurrence, built
    once here: level k has ratio ``q^(_BLOCK^k)``, which the carries between
    the blocks of level k - 1 obey.  Levels stop where one block holds them
    all or the next ratio underflows to 0: ``O(_BLOCK^2 log num_cells)``
    memory.
    """

    flux: FluxKind
    quadrature: KernelQuadrature
    corrector_mode: CorrectorMode
    grid: Grid
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        qdx = self.quadrature.dx
        gdx = self.grid.dx
        if abs(qdx - gdx) > 1e-12 * max(qdx, gdx):
            raise ValueError(
                f"quadrature mesh size {qdx!r} does not match grid dx {gdx!r}"
            )
        span = self.quadrature.dx / self.quadrature.theta
        size = self.grid.num_cells
        levels = [_block_level(span)]
        while size > _BLOCK and levels[-1][1][0] > 0.0:
            size = -(-size // _BLOCK)
            span *= _BLOCK
            levels.append(_block_level(span))
        object.__setattr__(self, "blocks", tuple(levels))

    def corrector_factors(self) -> tuple[float, float]:
        if self.corrector_mode is CorrectorMode.CORRECTED:
            return self.quadrature.moment0, self.quadrature.moment1
        return 1.0, 1.0


@dataclass(frozen=True)
class SolverState:
    """Simulation time, current grid function and its ``umax = max|u_j|``.

    ``umax`` is taken once, here: the one reduction is also the finiteness
    check (:class:`SolverAbort` on NaN or inf), and it bounds the next step.
    The values are made read-only so that ``umax`` cannot go stale; a
    caller that keeps writing to its array passes a copy.
    """

    t: float
    u: GridFunction
    umax: float = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        vals = self.u.values
        umax = float(np.abs(vals).max())
        if not math.isfinite(umax):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise SolverAbort(f"non-finite value in cell {bad} at t = {self.t!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "umax", umax)


@dataclass
class RunRecord:
    """What a run produced: snapshots, the step log and two flags.

    ``step_reports`` is the step log: a read-only float64 array with one row
    per kept step and the columns ``t, dt, mass, l1, l2, linf`` of the state
    after the step.  ``aborted`` is set when the state left the finite
    range; the last snapshot is then the last good state.
    ``boundary_warning`` is set when a snapshot found the solution at the
    edge of the domain.  The parameters of the run are the caller's; the
    CLI writes them to its manifest.
    """

    snapshots: list[tuple[float, GridFunction]]
    step_reports: np.ndarray = field(default_factory=lambda: np.empty((0, 6)))
    aborted: bool = False
    boundary_warning: bool = False


def _recurrence(x: np.ndarray, blocks, level: int = 0) -> np.ndarray:
    """``y_j = r y_{j-1} + x_j`` from ``y_{-1} = 0``, with ``r`` the ratio of
    ``blocks[level]``; ``x`` is overwritten.

    A block's outputs are its inputs times the level's matrix once r times
    the previous block's last output is added to its first input.  Those
    carries obey the same recurrence one level up, on the inputs times e.
    """
    t, e = blocks[level]
    n = x.shape[0]
    if n <= _BLOCK:
        return x @ t[:n, :n]
    nb = -(-n // _BLOCK)
    if nb * _BLOCK != n:
        x = np.concatenate((x, np.zeros(nb * _BLOCK - n)))
    rows = x.reshape(nb, _BLOCK)
    if e[0] > 0.0:
        rows[1:, 0] += _recurrence(rows @ e, blocks, level + 1)[:-1]
    return (rows @ t).reshape(-1)[:n]


def _add_memory_sum(part: np.ndarray, upad: np.ndarray, scale: float, config: SchemeConfig) -> None:
    """``part_j += scale * S_j`` on the window ``upad[1:]``, whose left
    neighbours are zero; ``upad`` is zero past the window's m cells."""
    quad = config.quadrature
    h = quad.dx / quad.theta
    m = part.shape[0]
    # E_j = q E_{j-1} + x_j with x_j = scale p upad_j; the zeros past the
    # window pad the input to whole blocks, and reach no output before m.
    x = upad[: -(-m // _BLOCK) * _BLOCK] * (scale * -math.expm1(-h))
    e = _recurrence(x, config.blocks)[:m]
    part += e
    big_n = quad.n_terms
    if big_n < m:
        part[big_n:] -= e[: m - big_n] * math.exp(-big_n * h)


def _face_flux_difference(
    part: np.ndarray, win: np.ndarray, dx: float, a_minus: float, a_plus: float, mlf: bool
) -> None:
    """``part_j = (H_{j+1/2} - H_{j-1/2})/dx`` (see :func:`rhs`) on the cells
    of ``win`` between its first and last entry, both 0."""
    quarter = win * (0.25 / dx)
    if mlf:
        left, right = quarter, quarter.copy()
    else:
        left = np.abs(quarter)
        right = quarter + left
        np.subtract(quarter, left, out=left)
    left -= a_minus
    left *= win
    right += a_plus
    right *= win
    # H/dx at the faces of the window: left[k] = L(win_k) + R(win_k+1).
    left[:-1] += right[1:]
    np.subtract(left[1:-1], left[:-2], out=part)


def rhs(
    state: SolverState,
    params: PhysicalParams,
    config: SchemeConfig,
    dt_ref: float | None = None,
) -> GridFunction:
    """Evaluate the semi-discrete right-hand side at the current state.

    ``dt_ref`` is required for the modified Lax-Friedrichs flux, whose
    dissipation is tied to the current time step.

    Every term of ``rhs_j`` reads only ``u_{j-N} .. u_{j+1}`` and vanishes
    on zero data (both fluxes are 0 at (0, 0)), so ``rhs_j`` is exactly 0.0
    for ``j < lo = max(first nonzero cell - 1, 0)``; only ``u[lo:]`` is
    assembled.  Besides the memory sum and ``-(c/theta^2) M0 u_j`` the terms
    are differences of one face flux over dx,

        H_{j+1/2} = g_{j+1/2} + dx (a+ u_{j+1} - a- u_j),

    with ``a- = nu/dx^2`` and ``a+ = nu/dx^2 + c M1/(theta dx)``; the modified
    Lax-Friedrichs dissipation adds ``1/(4 dt_ref)`` to both.  Each flux is
    a part of the left state plus a part of the right (Engquist-Osher
    ``a(a-|a|)/4 + b(b+|b|)/4``, modified Lax-Friedrichs ``a^2/4 + b^2/4``
    plus the dissipation), so ``H_{j+1/2} = L(u_j) + R(u_{j+1})``.
    """
    if state.u.grid is not config.grid and state.u.grid != config.grid:
        raise ValueError("state grid does not match scheme configuration grid")
    mlf = config.flux is FluxKind.MODIFIED_LAX_FRIEDRICHS
    if mlf and not (dt_ref is not None and dt_ref > 0.0):
        raise ValueError("the modified Lax-Friedrichs flux needs a positive dt_ref")
    u = state.u.values
    n = u.shape[0]
    dx = config.grid.dx
    m0, m1 = config.corrector_factors()
    theta = config.quadrature.theta
    mem = params.c / (theta * theta)
    a_minus = params.nu / (dx * dx)
    a_plus = a_minus + params.c * m1 / (theta * dx)
    if mlf:
        a_minus += 0.25 / dt_ref
        a_plus += 0.25 / dt_ref

    lo = max(int((u != 0.0).argmax()) - 1, 0)
    uw = u[lo:]
    m = n - lo
    # The window between zeros, padded to whole blocks for the memory sum.
    upad = np.zeros(max(m + 2, -(-m // _BLOCK) * _BLOCK))
    upad[1 : m + 1] = uw

    vals = np.zeros(n)
    part = vals[lo:]
    _face_flux_difference(part, upad[: m + 2], dx, a_minus, a_plus, mlf)
    part -= np.multiply(uw, mem * m0)
    _add_memory_sum(part, upad, mem, config)
    # A non-finite entry makes the sum non-finite; a finite sum of finite
    # terms can also overflow, so the entries decide.
    if not math.isfinite(part.sum()):
        bad = np.flatnonzero(~np.isfinite(part))
        if bad.size:
            raise SolverAbort(
                f"right-hand side is not finite in cell {lo + int(bad[0])} "
                f"at t = {state.t!r}"
            )
    return GridFunction.from_checked(config.grid, vals)


def _dt_denominator(state: SolverState, params: PhysicalParams, config: SchemeConfig) -> float:
    dx = config.grid.dx
    theta = config.quadrature.theta
    return (
        state.umax / dx
        + 2.0 * params.nu / (dx * dx)
        + (params.c / (theta * theta)) * config.quadrature.stability_sum
    )


def _flux_headroom(config: SchemeConfig) -> float:
    # The modified Lax-Friedrichs flux spends half the diagonal slack on its
    # own dx/(4 dt) dissipation, so its monotone step bound is half the
    # Engquist-Osher one.
    if config.flux is FluxKind.MODIFIED_LAX_FRIEDRICHS:
        return 0.5
    return 1.0


def _check_step_limits(safety: float, dt_max: float) -> None:
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    if not dt_max > 0.0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")


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
    _check_step_limits(safety, dt_max)
    denom = _dt_denominator(state, params, config)
    if denom <= 0.0:
        return dt_max
    return min(_flux_headroom(config) * safety / denom, dt_max)


def step_euler(
    state: SolverState,
    params: PhysicalParams,
    config: SchemeConfig,
    dt: float,
) -> SolverState:
    """One forward-Euler step ``u <- u + dt * rhs(u)``.

    A step beyond the stability bound is rejected outright, never clipped.
    The bound reads ``state.umax``; building the new state checks that it is
    finite.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    denom = _dt_denominator(state, params, config)
    bound = _flux_headroom(config) / denom if denom > 0.0 else math.inf
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(f"dt = {dt!r} exceeds the stability bound {bound!r}")
    vals = rhs(state, params, config, dt_ref=dt).values
    # rhs has checked its own values; a finite rhs can still overflow the
    # update, which the new state's umax reduction catches.
    vals *= dt
    vals += state.u.values
    return SolverState(state.t + dt, GridFunction.from_checked(config.grid, vals))


def march(
    initials: Sequence[GridFunction],
    params: PhysicalParams,
    config: SchemeConfig,
    targets: Iterable[float] = (math.inf,),
    safety: float = 0.9,
    dt_max: float = DEFAULT_DT_MAX,
) -> Iterator[tuple[float, list[SolverState]]]:
    """Step states from t = 0 on one shared dt sequence, yielding ``(dt, states)``.

    The step is the smallest ``stable_dt`` across the states (at most
    ``dt_max``), cut to the gap to the next of the increasing ``targets``,
    which are landed on exactly; the default target is never reached, so the
    caller stops.  The comparison properties (L1 contraction, order
    preservation) need this one time grid.  The initial data are copied, so
    the caller's arrays stay writable.
    """
    if not initials:
        raise ValueError("need at least one initial state")
    _check_step_limits(safety, dt_max)
    states = [SolverState(0.0, u.copy()) for u in initials]
    t = 0.0
    for target in targets:
        while t < target:
            gap = target - t
            dt = min(min(stable_dt(s, params, config, safety, dt_max) for s in states), gap)
            lands = dt >= gap * (1.0 - 1e-14)
            if lands:
                dt = gap
            states = [step_euler(s, params, config, dt) for s in states]
            if lands:
                states = [SolverState(target, s.u) for s in states]
            t = states[0].t
            yield dt, states


def _boundary_contact(u: GridFunction, u0_linf: float) -> bool:
    k = min(_BOUNDARY_CELLS, u.grid.num_cells // 2)
    edge = max(
        float(np.abs(u.values[:k]).max(initial=0.0)),
        float(np.abs(u.values[-k:]).max(initial=0.0)),
    )
    return edge > _BOUNDARY_FRACTION * u0_linf


def _log_sums(dt: float, state: SolverState) -> tuple:
    """``(t, dt, sum u, sum |u|, sum u^2, max|u|)``, the raw row of the step log.

    The pairwise sums are accurate to O(eps log n), far inside the 1e-12
    monotonicity and 1e-8 mass tolerances; exactly rounded sums are left to
    grid.norm and grid.mass, which snapshot analysis uses.  A function of
    its own, so that no array outlives the row.
    """
    v = state.u.values
    av = np.abs(v)
    return (state.t, dt, np.add.reduce(v), np.add.reduce(av),
            np.add.reduce(np.square(av, out=av)), state.umax)


def run(
    initial: GridFunction,
    params: PhysicalParams,
    config: SchemeConfig,
    t_end: float,
    snapshot_times: Sequence[float] = (),
    safety: float = 0.9,
    dt_max: float = DEFAULT_DT_MAX,
    report_every: int = 1,
) -> RunRecord:
    """Advance from ``initial`` to ``t_end``, landing exactly on snapshot times.

    The steps are those of :func:`march` with the snapshot times as targets.
    Snapshots store writable copies of the state at exactly the requested
    times, and every ``report_every``-th step adds a row to the step log
    (see :class:`RunRecord`), whose max norm is the state's ``umax``.  If
    the state leaves the finite range the run aborts, keeping the last good
    snapshot and the log up to it, and flagging the record.
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

    record = RunRecord(snapshots=[(0.0, initial.copy())])
    u0_linf = norm(initial, math.inf)
    rows = []  # one tuple of _log_sums per kept step

    state = SolverState(0.0, initial.copy())  # the last good state
    k = 0  # index of the next snapshot time
    steps = march([initial], params, config, snaps, safety, dt_max)
    # rhs and SolverState detect non-finite values; NumPy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for count, (dt, (state,)) in enumerate(steps, 1):
                if count % report_every == 0:
                    rows.append(_log_sums(dt, state))
                while k < len(snaps) and state.t >= snaps[k]:
                    record.snapshots.append((snaps[k], state.u.copy()))
                    if (u0_linf > 0.0 and not record.boundary_warning
                            and _boundary_contact(state.u, u0_linf)):
                        record.boundary_warning = True
                        warnings.warn(
                            f"solution reached the domain boundary by t = {snaps[k]!r}; "
                            "enlarge the domain for trustworthy long-time results",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                    k += 1
        except SolverAbort:
            record.aborted = True
            record.snapshots.append((state.t, state.u.copy()))
    log = np.array(rows, dtype=np.float64).reshape(-1, 6)
    dx = config.grid.dx
    log[:, 2:4] *= dx
    log[:, 4] = np.sqrt(dx * log[:, 4])
    log.setflags(write=False)
    record.step_reports = log
    return record
