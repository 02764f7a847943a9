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
each :func:`march` builds once per case.  The other terms are differences of
one face flux, plus ``-M0 u_j`` (see :func:`rhs`).  Cells left of the first
nonzero cell less one are skipped: their right-hand side is exactly 0.0.
A :class:`SolverState` takes ``max|u|`` once, when it is built: that one
reduction is both its finiteness check and the bound of its next step.

:func:`march` steps the states of independent cases, each with its own
parameters, as one :class:`StateBlock`; the per-step scalars become per-case
columns, built once per march.  A lone state is a block of one case.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .grid import Grid, GridFunction, norm
from .kernel import _BLOCK, KernelQuadrature, _levels, _recurrence

__all__ = [
    "FluxKind",
    "CorrectorMode",
    "PhysicalParams",
    "SchemeConfig",
    "SolverState",
    "StateBlock",
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


class _Cases:
    """The cases of a block and their constants, built once per march.

    ``params`` and ``config`` are one object each for one case, or
    sequences with one entry per case; the block's step functions take back
    exactly these objects.  The per-case scalars of the cell arithmetic are
    ``(cases, 1, 1)`` columns, plain floats for one case, so that one case
    runs the operations of a lone state.  ``levels`` holds the constants
    of the memory recurrence (see :func:`augburgers.kernel._levels`).
    """

    def __init__(self, params, config) -> None:
        self.given = (params, config)
        if isinstance(config, SchemeConfig):
            params, config = (params,), (config,)
        self.params, self.configs = tuple(params), tuple(config)
        k = len(self.configs)
        if k == 0 or len(self.params) != k:
            raise ValueError("need one params and one config for each of at least one case")
        self.widths = [c.grid.num_cells for c in self.configs]
        self.width = max(self.widths)
        self.short = [(i, n) for i, n in enumerate(self.widths) if n < self.width]
        self.mlf = [c.flux is FluxKind.MODIFIED_LAX_FRIEDRICHS for c in self.configs]
        self.headroom = [_flux_headroom(c) for c in self.configs]
        self.dx, self.diffusion, self.memory, self.truncation = [], [], [], []
        quarter, a_minus, a_plus, mem_m0, mem_p = [], [], [], [], []
        for i, (p, c) in enumerate(zip(self.params, self.configs)):
            quad = c.quadrature
            dx, theta = c.grid.dx, quad.theta
            m0, m1 = c.corrector_factors()
            mem = p.c / (theta * theta)
            h = quad.dx / theta
            self.dx.append(dx)
            self.diffusion.append(2.0 * p.nu / (dx * dx))
            self.memory.append(mem * quad.stability_sum)
            a_minus.append(p.nu / (dx * dx))
            a_plus.append(a_minus[-1] + p.c * m1 / (theta * dx))
            # The rows the truncation of case i applies to, its N and q^N.
            rows = i if len(self.configs) > 1 else Ellipsis
            self.truncation.append((rows, quad.n_terms, math.exp(-quad.n_terms * h)))
            quarter.append(0.25 / dx)
            mem_m0.append(mem * m0)
            mem_p.append(mem * -math.expm1(-h))
        self.quarter = self.column(quarter)
        self.a_minus = self.column(a_minus)
        self.a_plus = self.column(a_plus)
        self.mem_m0 = self.column(mem_m0)
        self.mem_p = self.column(mem_p)
        self.any_mlf, self.all_mlf = any(self.mlf), all(self.mlf)
        self.eo = None  # a 0/1 column where the block mixes the two fluxes
        if self.any_mlf and not self.all_mlf:
            self.eo = self.column([0.0 if f else 1.0 for f in self.mlf])
        self.levels = _levels([c.quadrature for c in self.configs], self.width)

    def column(self, values):
        """Per-case values in the shape the cell arithmetic broadcasts."""
        if len(values) == 1:
            return values[0]
        return np.array(values, dtype=np.float64).reshape(-1, 1, 1)


@dataclass(frozen=True)
class StateBlock:
    """The states of a march at one step: ``u[i, s]`` is state s of case i.

    ``u`` is a read-only ``(cases, states, cells)`` array as wide as the
    widest case's grid; the cells past a shorter case's grid are exactly
    0.0, its zero extension.  ``t[i]`` is case i's time.  ``umax[i][s]`` is
    the max|u| of state s, taken once when the block is built; as for
    :class:`SolverState` that reduction is the finiteness check.
    ``cases`` holds the parameters and per-case constants of the march.
    """

    t: tuple[float, ...]
    u: np.ndarray
    cases: _Cases = field(repr=False)
    umax: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vals = self.u
        umax = np.abs(vals).max(axis=2).tolist()
        if not all(map(math.isfinite, itertools.chain.from_iterable(umax))):
            i, s, cell = np.argwhere(~np.isfinite(vals))[0].tolist()
            raise SolverAbort(f"non-finite value in cell {cell} of case {i}, state {s}")
        vals.setflags(write=False)
        object.__setattr__(self, "umax", umax)


def _own_cases(block: StateBlock, params, config) -> _Cases:
    cases = block.cases
    if params is not cases.given[0] or config is not cases.given[1]:
        raise ValueError("a block steps with the params and config it was marched with")
    return cases


def _one_case(state: SolverState, params: PhysicalParams, config: SchemeConfig) -> StateBlock:
    """``state`` as a block of one case with one state, sharing its values."""
    if state.u.grid is not config.grid and state.u.grid != config.grid:
        raise ValueError("state grid does not match scheme configuration grid")
    return StateBlock((state.t,), state.u.values.reshape(1, 1, -1), _Cases(params, config))


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


def _add_memory_sum(part: np.ndarray, upad: np.ndarray, cases: _Cases) -> None:
    """``part_j += (c/theta^2) S_j`` on the window ``upad[..., 1:]``, whose
    left neighbours are zero; ``upad`` is zero past the window's m cells."""
    m = part.shape[-1]
    # E_j = q E_{j-1} + x_j with x_j = (c/theta^2) p upad_j; the zeros past
    # the window pad the input to whole blocks, and reach no output before m.
    x = upad[..., : -(-m // _BLOCK) * _BLOCK] * cases.mem_p
    e = _recurrence(x, cases.levels)[..., :m]
    part += e
    for rows, big_n, q_n in cases.truncation:
        if big_n < m:
            part[rows][..., big_n:] -= e[rows][..., : m - big_n] * q_n


def _face_flux_difference(
    part: np.ndarray, win: np.ndarray, cases: _Cases, a_minus, a_plus
) -> None:
    """``part_j = (H_{j+1/2} - H_{j-1/2})/dx`` (see :func:`rhs`) on the cells
    of ``win`` between its first and last entry, both 0."""
    quarter = win * cases.quarter
    if cases.all_mlf:
        left, right = quarter, quarter.copy()
    else:
        left = np.abs(quarter)
        if cases.eo is not None:
            left *= cases.eo
        right = quarter + left
        np.subtract(quarter, left, out=left)
    left -= a_minus
    left *= win
    right += a_plus
    right *= win
    # H/dx at the faces of the window: left[k] = L(win_k) + R(win_k+1).
    left[..., :-1] += right[..., 1:]
    np.subtract(left[..., 1:-1], left[..., :-2], out=part)


def _block_rhs(block: StateBlock, dt_ref) -> np.ndarray:
    cases = block.cases
    a_minus, a_plus = cases.a_minus, cases.a_plus
    if cases.any_mlf:
        if dt_ref is None or not min(dt_ref) > 0.0:
            raise ValueError("the modified Lax-Friedrichs flux needs a positive dt_ref")
        dissipation = cases.column([0.25 / d if f else 0.0 for d, f in zip(dt_ref, cases.mlf)])
        a_minus = a_minus + dissipation
        a_plus = a_plus + dissipation
    k, s, n = block.u.shape
    # One state is assembled on 1-D views: the operations of a lone state.
    u = block.u.reshape(n) if k * s == 1 else block.u
    nonzero = u != 0.0
    if u.ndim > 1:
        nonzero = nonzero.reshape(-1, n).any(axis=0)
    lo = max(int(nonzero.argmax()) - 1, 0)
    uw = u[..., lo:]
    m = n - lo
    # The window between zeros, padded to whole blocks for the memory sum.
    upad = np.zeros(u.shape[:-1] + (max(m + 2, -(-m // _BLOCK) * _BLOCK),))
    upad[..., 1 : m + 1] = uw

    vals = np.zeros(u.shape)
    part = vals[..., lo:]
    _face_flux_difference(part, upad[..., : m + 2], cases, a_minus, a_plus)
    part -= np.multiply(uw, cases.mem_m0)
    _add_memory_sum(part, upad, cases)
    vals = vals.reshape(k, s, n)
    for i, width in cases.short:
        vals[i, :, width:] = 0.0
    # A non-finite entry makes the sum non-finite; a finite sum of finite
    # terms can also overflow, so the entries decide.
    if not math.isfinite(part.sum()):
        bad = np.argwhere(~np.isfinite(vals))
        if bad.size:
            i, j, cell = bad[0].tolist()
            raise SolverAbort(
                f"right-hand side is not finite in cell {cell} of case {i}, state {j}"
            )
    return vals


def rhs(state, params, config, dt_ref=None):
    """Evaluate the semi-discrete right-hand side at the current state.

    ``state`` is one :class:`SolverState`, with its ``params``, ``config``
    and float ``dt_ref``, and the result a :class:`GridFunction`; or a
    :class:`StateBlock` with the ``params`` and ``config`` of its march and
    one ``dt_ref`` per case, and the result a ``(cases, states, cells)``
    array, exactly 0.0 past each case's grid.  ``dt_ref`` is required for
    the modified Lax-Friedrichs flux, whose dissipation is tied to the
    current time step.

    Every term of ``rhs_j`` reads only ``u_{j-N} .. u_{j+1}`` and vanishes
    on zero data (both fluxes are 0 at (0, 0)), so ``rhs_j`` is exactly 0.0
    for ``j < lo = max(first nonzero cell - 1, 0)``, the first nonzero cell
    of any state of the block; only ``u[..., lo:]`` is assembled.  Besides
    the memory sum and ``-(c/theta^2) M0 u_j`` the terms are differences of
    one face flux over dx,

        H_{j+1/2} = g_{j+1/2} + dx (a+ u_{j+1} - a- u_j),

    with ``a- = nu/dx^2`` and ``a+ = nu/dx^2 + c M1/(theta dx)``; the modified
    Lax-Friedrichs dissipation adds ``1/(4 dt_ref)`` to both.  Each flux is
    a part of the left state plus a part of the right (Engquist-Osher
    ``a(a-|a|)/4 + b(b+|b|)/4``, modified Lax-Friedrichs ``a^2/4 + b^2/4``
    plus the dissipation), so ``H_{j+1/2} = L(u_j) + R(u_{j+1})``.
    """
    if isinstance(state, SolverState):
        block = _one_case(state, params, config)
        vals = _block_rhs(block, None if dt_ref is None else (dt_ref,))
        return GridFunction.from_checked(config.grid, vals[0, 0])
    _own_cases(state, params, config)
    return _block_rhs(state, dt_ref)


def _denominators(block: StateBlock) -> list[list[float]]:
    # Per case and state: max|u_j|/dx + 2 nu/dx^2 + (c/theta^2) sum (m+1) w_m.
    cases = block.cases
    return [
        [umax / dx + a + b for umax in row]
        for row, dx, a, b in zip(block.umax, cases.dx, cases.diffusion, cases.memory)
    ]


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


def stable_dt(state, params, config, safety: float, dt_max: float = DEFAULT_DT_MAX):
    """Largest admissible explicit step times ``safety``, capped at ``dt_max``.

    The bound is ``safety / (max|u_j|/dx + 2 nu/dx^2 + (c/theta^2) sum (m+1) w_m)``
    and is recomputed from the current state, so the step adapts as the
    solution decays.  For the modified Lax-Friedrichs flux the bound is
    halved: its built-in dissipation adds ``1/(2 dt)`` to the diagonal of the
    update, which consumes half the stability slack.  A :class:`SolverState`
    gets a float; a :class:`StateBlock` (see :func:`rhs`) one per case, the
    smallest over the case's states.
    """
    _check_step_limits(safety, dt_max)
    if isinstance(state, SolverState):
        return _stable_dts(_one_case(state, params, config), safety, dt_max)[0]
    _own_cases(state, params, config)
    return _stable_dts(state, safety, dt_max)


def _stable_dts(block: StateBlock, safety: float, dt_max: float) -> list[float]:
    out = []
    for row, headroom in zip(_denominators(block), block.cases.headroom):
        dt = dt_max
        for d in row:
            if d > 0.0:
                dt = min(headroom * safety / d, dt)
        out.append(dt)
    return out


def _step_block(block: StateBlock, params, config, dts) -> StateBlock:
    cases = block.cases
    if len(dts) != len(cases.configs):
        raise ValueError(f"need one dt per case, got {len(dts)} for {len(cases.configs)}")
    for row, headroom, dt in zip(_denominators(block), cases.headroom, dts):
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        for d in row:
            bound = headroom / d if d > 0.0 else math.inf
            if dt > bound * (1.0 + 1e-12):
                raise StabilityError(f"dt = {dt!r} exceeds the stability bound {bound!r}")
    vals = rhs(block, params, config, dt_ref=dts)
    # rhs has checked its own values; a finite rhs can still overflow the
    # update, which the new block's umax reduction catches.
    vals *= cases.column(dts)
    vals += block.u
    return StateBlock(tuple(map(operator.add, block.t, dts)), vals, cases)


def step_euler(state, params, config, dt):
    """One forward-Euler step ``u <- u + dt * rhs(u)``.

    A step beyond the stability bound is rejected outright, never clipped.
    The bound reads the state's ``umax``; building the new state checks
    that it is finite.  A :class:`SolverState` takes a float ``dt``; a
    :class:`StateBlock` (see :func:`rhs`) one per case, shared by the
    case's states.
    """
    if isinstance(state, SolverState):
        new = _step_block(_one_case(state, params, config), params, config, (dt,))
        return SolverState(new.t[0], GridFunction.from_checked(config.grid, new.u[0, 0]))
    _own_cases(state, params, config)
    return _step_block(state, params, config, dt)


def _stack(groups, cases: _Cases) -> np.ndarray:
    """The initial states, one sequence per case, as a zero-padded block."""
    u = np.zeros((len(groups), len(groups[0]), cases.width))
    for i, (group, config) in enumerate(zip(groups, cases.configs, strict=True)):
        if len(group) != u.shape[1] or any(f.grid != config.grid for f in group):
            raise ValueError("each case needs as many initial states, on its config's grid")
        for j, initial in enumerate(group):
            u[i, j, : config.grid.num_cells] = initial.values
    return u


def march(
    initials,
    params,
    config,
    targets: Iterable[float] = (math.inf,),
    safety: float = 0.9,
    dt_max: float = DEFAULT_DT_MAX,
) -> Iterator[tuple[tuple[float, ...], StateBlock]]:
    """Step the states of independent cases from t = 0 as one block,
    yielding ``(dt, block)`` per step: the :class:`StateBlock` after the
    step and the dt each case took.

    One case is ``initials``, a sequence of grid functions, with its
    ``params`` and ``config``; several are sequences of these with one entry
    per case, each case with as many states.  Each case takes its own step,
    the smallest ``stable_dt`` of its states (at most ``dt_max``), so the
    states of a case share one dt sequence: the comparison properties (L1
    contraction, order preservation) need this one time grid.  The step is
    cut to the gap to the next of the increasing ``targets``, which are
    landed on exactly; the default target is never reached, so the caller
    stops.  Cases keep clocks of their own, so a march of several takes the
    default target only.  The initial data are copied, so the caller's
    arrays stay writable.
    """
    _check_step_limits(safety, dt_max)
    targets = tuple(targets)
    cases = _Cases(params, config)
    one = isinstance(config, SchemeConfig)
    if not one and targets != (math.inf,):
        raise ValueError("a march of several cases takes the default target only")
    u = _stack([initials] if one else initials, cases)
    block = StateBlock((0.0,) * u.shape[0], u, cases)
    for target in targets:
        while block.t[0] < target:
            dts = []
            lands = False
            for bound, t in zip(stable_dt(block, params, config, safety, dt_max), block.t):
                gap = target - t
                dt = min(bound, gap)
                if dt >= gap * (1.0 - 1e-14):
                    dt, lands = gap, True
                dts.append(dt)
            block = step_euler(block, params, config, dts)
            if lands:  # one case, which lands on the target exactly
                block = StateBlock((target,), block.u, cases)
            yield tuple(dts), block


def _boundary_contact(u: GridFunction, u0_linf: float) -> bool:
    k = min(_BOUNDARY_CELLS, u.grid.num_cells // 2)
    edge = max(
        float(np.abs(u.values[:k]).max(initial=0.0)),
        float(np.abs(u.values[-k:]).max(initial=0.0)),
    )
    return edge > _BOUNDARY_FRACTION * u0_linf


def _log_sums(dt: float, block: StateBlock) -> tuple:
    """``(t, dt, sum u, sum |u|, sum u^2, max|u|)`` of a one-state block,
    the raw row of the step log.

    The pairwise sums are accurate to O(eps log n), far inside the 1e-12
    monotonicity and 1e-8 mass tolerances; exactly rounded sums are left to
    grid.norm and grid.mass, which snapshot analysis uses.  A function of
    its own, so that no array outlives the row.
    """
    v = block.u[0, 0]
    av = np.abs(v)
    return (block.t[0], dt, np.add.reduce(v), np.add.reduce(av),
            np.add.reduce(np.square(av, out=av)), block.umax[0][0])


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

    The steps are those of :func:`march`, a block of one case with one
    state, with the snapshot times as targets.  Snapshots store writable
    copies of the state at exactly the requested times, and every
    ``report_every``-th step adds a row to the step log (see
    :class:`RunRecord`), whose max norm is the state's ``umax``.  If the
    state leaves the finite range the run aborts, keeping the log up to the
    last good state and adding that state as the last snapshot unless it is
    one already, and flagging the record.
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
    grid = config.grid

    block = None  # the last good state after the first step
    k = 0  # index of the next snapshot time
    steps = march([initial], params, config, snaps, safety, dt_max)
    # rhs and StateBlock detect non-finite values; NumPy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for count, ((dt,), block) in enumerate(steps, 1):
                if count % report_every == 0:
                    rows.append(_log_sums(dt, block))
                while k < len(snaps) and block.t[0] >= snaps[k]:
                    snap = GridFunction.from_checked(grid, block.u[0, 0].copy())
                    record.snapshots.append((snaps[k], snap))
                    if (u0_linf > 0.0 and not record.boundary_warning
                            and _boundary_contact(snap, u0_linf)):
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
            if block is not None and block.t[0] > record.snapshots[-1][0]:
                last = GridFunction.from_checked(grid, block.u[0, 0].copy())
                record.snapshots.append((block.t[0], last))
    log = np.array(rows, dtype=np.float64).reshape(-1, 6)
    dx = grid.dx
    log[:, 2:4] *= dx
    log[:, 4] = np.sqrt(dx * log[:, 4])
    log.setflags(write=False)
    record.step_reports = log
    return record
