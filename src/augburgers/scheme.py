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

in O(n) work at any N, blocked as products with triangular Toeplitz
matrices.  The other terms are differences of one face flux, plus
``-M0 u_j`` (see :func:`rhs`).  A :class:`StateBlock` holds the states of
independent cases, each with its own parameters, in one flat array and
takes each case's ``max|u|`` once, when it is built: that reduction is both
its finiteness check and the bound of its next step.  :func:`march`,
the one time loop, steps a block with :func:`stable_dt` and
:func:`step_euler`.
"""

from __future__ import annotations

import copy
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


class _Cases:
    """The cases of a block, its layout and constants, built once by
    :meth:`StateBlock.start`.

    ``params`` and ``config`` are one object, or one per case, as the step
    functions take them back.  The block is one flat array of
    ``cases x states`` rows: a zero cell, the case's cells, zeros to whole
    blocks of the recurrence, at least one (at least _BLOCK - 1 for a lone
    state: one case, one state).  A constant all cases share is a float,
    others are ``(rows, 1)`` columns.
    """

    def __init__(self, params, config, states: int) -> None:
        self.given = (params, config)
        if isinstance(config, SchemeConfig):
            params, config = (params,), (config,)
        self.params, self.configs = tuple(params), tuple(config)
        k = len(self.configs)
        if k == 0 or len(self.params) != k:
            raise ValueError("need one params and one config for each of at least one case")
        widths = [c.grid.num_cells for c in self.configs]
        self.width = max(widths)
        self.lone = k * states == 1
        # Each row ends in at least one zero, the right neighbour of its
        # last cell; a lone state keeps _BLOCK - 1 for its window.
        self.row = -(-(self.width + (_BLOCK if self.lone else 2)) // _BLOCK) * _BLOCK
        self.states, self.shape = states, (k, states, self.row)
        self.mlf = [c.flux is FluxKind.MODIFIED_LAX_FRIEDRICHS for c in self.configs]
        self.any_mlf, self.all_mlf = any(self.mlf), all(self.mlf)
        self.levels = _levels([c.quadrature for c in self.configs], self.row)
        # Per case, the terms of the step bound (see StateBlock.rates) and the
        # constants of rhs.
        dx, diffusion, memory, self.headroom = [], [], [], []
        quarter, a_minus, a_plus, mem_m0, p_frac, n_terms, q_n = ([] for _ in range(7))
        for p, c in zip(self.params, self.configs):
            quad = c.quadrature
            d, theta = c.grid.dx, quad.theta
            m0, m1 = c.corrector_factors()
            mem = p.c / (theta * theta)
            h = quad.dx / theta
            dx.append(d)
            diffusion.append(2.0 * p.nu / (d * d))
            memory.append(mem * quad.stability_sum)
            self.headroom.append(_flux_headroom(c))
            quarter.append(0.25 / d)
            a_minus.append(p.nu / (d * d))
            a_plus.append(a_minus[-1] + p.c * m1 / (theta * d))
            mem_m0.append(mem * m0)
            p_frac.append(-math.expm1(-h) / m0)
            n_terms.append(quad.n_terms)
            q_n.append(math.exp(-quad.n_terms * h))
        self.dx, self.diffusion, self.memory = (
            v[0] if self.lone else np.array(v) for v in (dx, diffusion, memory))
        self.quarter, self.a_minus, self.a_plus = map(self.per_row, (quarter, a_minus, a_plus))
        self.mem_m0 = self.per_row(mem_m0)
        self.eo = None  # 1.0 on the EO rows where the block mixes the two fluxes
        if self.any_mlf and not self.all_mlf:
            self.eo = self.per_row([0.0 if f else 1.0 for f in self.mlf])
        # The memory input is the (c/theta^2) M0 u of the -M0 term, so the
        # rest of its factor (c/theta^2) p, p/M0, scales the level-0 matrices.
        t = self.levels[0][0]
        t *= np.reshape(p_frac, (-1,) + (1,) * (t.ndim - 1))
        if self.lone:
            self.truncation = (n_terms[0], q_n[0])
            return
        # Entry j of a row is cell j - 1; ``padding`` is True outside the
        # cells, a bool array for its small memory.  The q^N truncation
        # gathers the sum N cells back for cells j - 1 >= N, else entry 0,
        # which is 0.0.  Fills and slices build both: a NumPy kernel's first
        # run pages in its code, 64-128 kB of peak RSS.
        padding = np.ones(self.shape, dtype=bool)
        idx = np.zeros(k * states * self.row, dtype=np.intp)
        for i, (n, big_n) in enumerate(zip(widths, n_terms)):
            padding[i, :, 1 : n + 1] = False
            for start in range(i * states * self.row, (i + 1) * states * self.row, self.row):
                idx[start + big_n + 1 : start + n + 1] = np.arange(start, start + n - big_n)
        self.padding = padding.reshape(-1, self.row)
        self.gather = (idx, self.per_row(q_n))

    def per_row(self, values):
        """Per-case values as a float if all equal, else a (rows, 1) column."""
        if values.count(values[0]) == len(values):
            return values[0]
        return np.repeat(np.array(values, dtype=np.float64), self.states)[:, None]

    def locate(self, index: int) -> str:
        r, col = divmod(index, self.row)
        return f"cell {col - 1} of case {r // self.states}, state {r % self.states}"


@dataclass(frozen=True)
class StateBlock:
    """The states of independent cases at one step, read-only.

    ``flat`` is the layout of the cases (see :class:`_Cases`) and ``u`` its
    ``(cases, states, cells)`` view; cells past a shorter grid are exactly
    0.0.  ``t[i]`` is case i's time.  ``umax``, the max|u| of each case's
    states (a float for a lone state), is taken once, here: its reductions
    are also the finiteness check (:class:`SolverAbort` on NaN or inf), and
    ``flat`` is made read-only so that ``umax`` cannot go stale.  ``rates``
    holds per case the step bound's denominator
    ``max|u_j|/dx + 2 nu/dx^2 + (c/theta^2) sum (m+1) w_m``, formed here
    once for both :func:`stable_dt` and :func:`step_euler`.  :meth:`start`
    builds the first block.

    ``lo`` of a lone state is a lower bound on the index of its first
    nonzero entry in ``flat`` (0 for a block of more rows): :meth:`start`
    finds the entry, and since ``rhs_j`` vanishes left of the cell before
    it (see :func:`rhs`), each step lowers the bound by one.  The lone
    state's step, its ``umax`` and its step log work on ``flat[lo:]`` only.
    """

    t: tuple[float, ...]
    flat: np.ndarray
    cases: _Cases = field(repr=False)
    lo: int = 0
    umax: object = field(init=False, repr=False)
    rates: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cases, vals = self.cases, self.flat
        if cases.lone:
            umax = float(np.maximum.reduce(np.abs(vals[self.lo :])))
            finite = math.isfinite(umax)
        else:
            # No |u| temporary of the whole block: a max and a min per case.
            per_case = vals.reshape(len(cases.configs), -1)
            umax = np.maximum(per_case.max(axis=1), -per_case.min(axis=1))
            finite = math.isfinite(umax.max())
        if not finite:
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise SolverAbort(f"non-finite value in {cases.locate(bad)}")
        vals.setflags(write=False)
        rates = umax / cases.dx + cases.diffusion + cases.memory
        object.__setattr__(self, "umax", umax)
        object.__setattr__(self, "rates", [rates] if cases.lone else rates.tolist())

    @classmethod
    def start(cls, initials, params, config) -> StateBlock:
        """The block of ``initials`` at t = 0, in a layout built for them.

        One case is ``initials``, a sequence of grid functions, with its
        ``params`` and ``config``; several are sequences of these with one
        entry per case, each case with as many states.  The step functions
        take the block with the same ``params`` and ``config`` objects.  The
        initial data are copied, so the caller's arrays stay writable.
        """
        groups = [initials] if isinstance(config, SchemeConfig) else initials
        cases = _Cases(params, config, len(groups[0]))
        flat = np.zeros(cases.shape)
        for i, (group, c) in enumerate(zip(groups, cases.configs, strict=True)):
            if len(group) != cases.states or any(f.grid != c.grid for f in group):
                raise ValueError("each case needs as many initial states, on its config's grid")
            for j, initial in enumerate(group):
                flat[i, j, 1 : c.grid.num_cells + 1] = initial.values
        flat = flat.reshape(-1)
        lo = int((flat != 0.0).argmax()) if cases.lone else 0
        return cls((0.0,) * len(cases.configs), flat, cases, lo)

    @property
    def u(self) -> np.ndarray:
        cases = self.cases
        return self.flat.reshape(cases.shape)[..., 1 : cases.width + 1]


def _own_cases(block: StateBlock, params, config) -> _Cases:
    cases = block.cases
    if params is not cases.given[0] or config is not cases.given[1]:
        raise ValueError("a block steps with the params and config it was built with")
    return cases


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


def _add_memory_sum(part: np.ndarray, x: np.ndarray, cases: _Cases) -> None:
    """``part += (c/theta^2) S`` from the memory input ``x``, which is
    ``(c/theta^2) M0 u`` (see :class:`_Cases`) and is overwritten: for a lone
    state from the zero left of the cells of ``part``, padded to whole
    blocks; for several rows in the flat layout, whose entries but the
    first and last are ``part``'s."""
    m = part.size
    # E_j = q E_{j-1} + p/M0 x_j, each row from its leading zero: e[k] is
    # the sum of the entry after x[k].
    if cases.lone:
        e = _recurrence(x, cases.levels)[:m]
        part += e
        big_n, q_n = cases.truncation
        if big_n < m:
            part[big_n:] -= e[: m - big_n] * q_n
        return
    e = _recurrence(x.reshape(cases.shape), cases.levels).reshape(-1)
    part += e[:m]
    idx, q_n = cases.gather
    shifted = e.take(idx, out=x.reshape(-1), mode="clip")
    rows = shifted.reshape(-1, cases.row)
    rows *= q_n
    part -= shifted[1:-1]


def _face_flux_difference(win: np.ndarray, cases: _Cases, a_minus, a_plus, out=None):
    """``(H_{j+1/2} - H_{j-1/2})/dx`` (see :func:`rhs`) on the entries of
    ``win`` but its first and last, to ``out`` or else to those entries of
    the array returned, shaped as ``win``."""
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
    lf, rf = left.reshape(-1), right.reshape(-1)
    lf[:-1] += rf[1:]
    np.subtract(lf[1:-1], lf[:-2], out=rf[1:-1] if out is None else out)
    return right


def rhs(block: StateBlock, params, config, dt_ref=None) -> np.ndarray:
    """Evaluate the semi-discrete right-hand side of a block's states.

    ``params`` and ``config`` are those the block was built with, and
    ``dt_ref`` has one entry per case; it is required for the modified
    Lax-Friedrichs flux, whose dissipation is tied to the time step.  The
    result is in the block's flat layout, exactly 0.0 outside the cases'
    cells.

    Every term of ``rhs_j`` reads only ``u_{j-N} .. u_{j+1}`` and vanishes
    on zero data (both fluxes are 0 at (0, 0)), so ``rhs_j`` is exactly 0.0
    left of the cell before the first nonzero one; a lone state (one case,
    one state) assembles only the cells from the one before ``block.lo``
    (see :class:`StateBlock`).  A block of more rows
    assembles its whole flat array and sets the entries outside the cases'
    cells to 0.0.  Besides the memory sum and ``-(c/theta^2) M0 u_j``
    the terms are differences of one face flux over dx,

        H_{j+1/2} = g_{j+1/2} + dx (a+ u_{j+1} - a- u_j),

    with ``a- = nu/dx^2`` and ``a+ = nu/dx^2 + c M1/(theta dx)``; the modified
    Lax-Friedrichs dissipation adds ``1/(4 dt_ref)`` to both.  Each flux is
    a part of the left state plus a part of the right (Engquist-Osher
    ``a(a-|a|)/4 + b(b+|b|)/4``, modified Lax-Friedrichs ``a^2/4 + b^2/4``
    plus the dissipation), so ``H_{j+1/2} = L(u_j) + R(u_{j+1})``.
    """
    cases, flat = _own_cases(block, params, config), block.flat
    a_minus, a_plus = cases.a_minus, cases.a_plus
    if cases.any_mlf:
        if dt_ref is None or not min(dt_ref) > 0.0:
            raise ValueError("the modified Lax-Friedrichs flux needs a positive dt_ref")
        if cases.lone:
            dissipation = 0.25 / dt_ref[0]
        else:
            dissipation = cases.per_row(
                [0.25 / d if f else 0.0 for d, f in zip(dt_ref, cases.mlf)])
        a_minus = a_minus + dissipation
        a_plus = a_plus + dissipation
    if cases.lone:
        # The window from the zero left of the cell before entry block.lo
        # to the zero past the grid.
        n = cases.width
        lo = max(block.lo - 2, 0)
        win, vals = flat[lo : n + 2], np.zeros(flat.shape)
        part = vals[lo + 1 : n + 1]
        _face_flux_difference(win, cases, a_minus, a_plus, out=part)
        # The memory input from the zero left of the window, padded to whole
        # blocks by the zeros past it (at least one: x[1:] holds every cell).
        x = flat[lo : lo - (-(part.size + 1) // _BLOCK) * _BLOCK] * cases.mem_m0
        part -= x[1 : part.size + 1]
        _add_memory_sum(part, x, cases)
    else:
        win = flat.reshape(-1, cases.row)
        rows = _face_flux_difference(win, cases, a_minus, a_plus)
        x = np.multiply(win, cases.mem_m0)
        rows -= x
        vals = rows.reshape(-1)
        part = vals[1:-1]
        _add_memory_sum(part, x, cases)
        np.copyto(rows, 0.0, where=cases.padding)
    # A non-finite entry makes the sum non-finite; a finite sum of finite
    # terms can also overflow, so the entries decide.
    if not math.isfinite(np.add.reduce(part)):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise SolverAbort(f"right-hand side is not finite in {cases.locate(int(bad[0]))}")
    return vals


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
    block: StateBlock, params, config, safety: float, dt_max: float = DEFAULT_DT_MAX
) -> list[float]:
    """Largest admissible explicit step of each case times ``safety``,
    capped at ``dt_max``: the smallest over the case's states.

    The bound is ``safety / (max|u_j|/dx + 2 nu/dx^2 + (c/theta^2) sum (m+1) w_m)``
    and is recomputed from the block, so the step adapts as the solution
    decays.  For the modified Lax-Friedrichs flux the bound is halved: its
    built-in dissipation adds ``1/(2 dt)`` to the diagonal of the update,
    which consumes half the stability slack.  ``params`` and ``config`` are
    the block's (see :func:`rhs`).
    """
    _check_step_limits(safety, dt_max)
    cases = _own_cases(block, params, config)
    if cases.lone:
        d = block.rates[0]
        return [min(cases.headroom[0] * safety / d, dt_max) if d > 0.0 else dt_max]
    return [
        min(h * safety / d, dt_max) if d > 0.0 else dt_max
        for h, d in zip(cases.headroom, block.rates)
    ]


def step_euler(block: StateBlock, params, config, dts) -> StateBlock:
    """One forward-Euler step ``u <- u + dt * rhs(u)`` of a block's states.

    ``dts`` has one entry per case, shared by the case's states, and
    ``params`` and ``config`` are the block's (see :func:`rhs`).  A step
    beyond the stability bound is rejected outright, never clipped.  The
    bound reads the block's ``rates``; building the new block checks that it
    is finite.  A lone state is updated from the entry before ``block.lo``
    on, where its ``rhs`` can be nonzero.
    """
    cases = _own_cases(block, params, config)
    if len(dts) != len(cases.configs):
        raise ValueError(f"need one dt per case, got {len(dts)} for {len(cases.configs)}")
    for dt, h, d in zip(dts, cases.headroom, block.rates):
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        bound = h / d if d > 0.0 else math.inf
        if dt > bound * (1.0 + 1e-12):
            raise StabilityError(f"dt = {dt!r} exceeds the stability bound {bound!r}")
    vals = rhs(block, params, config, dt_ref=dts)
    # rhs has checked its own values; a finite rhs can still overflow the
    # update, which the new block's umax reduction catches.
    if cases.lone:
        dt = dts[0]
        lo = max(block.lo - 1, 0)
        cells = slice(lo, cases.width + 1)
        part = vals[cells]
        part *= dt
        part += block.flat[cells]
        return StateBlock((block.t[0] + dt,), vals, cases, lo)
    rows = vals.reshape(-1, cases.row)
    rows *= cases.per_row(dts)
    vals += block.flat
    return StateBlock(tuple(map(operator.add, block.t, dts)), vals, cases)


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

    ``initials``, ``params`` and ``config`` are one case or several, as
    :meth:`StateBlock.start` takes them; the block's layout and constants
    are built once (see :class:`_Cases`).  Each case takes its own step,
    the smallest ``stable_dt`` of its states (at most ``dt_max``), so the
    states of a case share one dt sequence: the comparison properties (L1
    contraction, order preservation) need this one time grid.  The step is
    cut to the gap to the next of the increasing ``targets``, which are
    landed on exactly; the default target is never reached, so the caller
    stops.  Cases keep clocks of their own, so a march of several takes the
    default target only.  A step that leaves a case's clock unchanged
    (``t + dt == t``) raises :class:`SolverAbort`.
    """
    _check_step_limits(safety, dt_max)
    targets = tuple(targets)
    if not isinstance(config, SchemeConfig) and targets != (math.inf,):
        raise ValueError("a march of several cases takes the default target only")
    block = StateBlock.start(initials, params, config)
    lone = block.cases.lone
    for target in targets:
        while block.t[0] < target:
            dts = stable_dt(block, params, config, safety, dt_max)
            # Several cases take the default target, so only one case lands.
            gap = target - block.t[0]
            lands = dts[0] >= gap * (1.0 - 1e-14)
            if lands:
                dts = [gap]
            if lone:
                stuck = [block.t[0] + dts[0] == block.t[0]]
            else:
                stuck = list(map(operator.eq, map(operator.add, block.t, dts), block.t))
            if True in stuck:
                i = stuck.index(True)
                raise SolverAbort(
                    f"the step of case {i} at t = {block.t[i]!r} does not advance its time")
            block = step_euler(block, params, config, dts)
            if lands:  # exactly on the target, the state as checked
                block = copy.copy(block)
                object.__setattr__(block, "t", (target,))
            yield tuple(dts), block


def _boundary_contact(u: GridFunction, u0_linf: float) -> bool:
    k = min(_BOUNDARY_CELLS, u.grid.num_cells // 2)
    edge = max(
        float(np.abs(u.values[:k]).max(initial=0.0)),
        float(np.abs(u.values[-k:]).max(initial=0.0)),
    )
    return edge > _BOUNDARY_FRACTION * u0_linf


def _log_sums(dt: float, block: StateBlock, end: int) -> tuple:
    """``(t, dt, sum u, sum |u|, sum u^2, max|u|)`` of a lone-state block
    whose grid function ends before ``block.flat[end]``, the raw row of the
    step log; the sums run from entry ``block.lo`` on, since the entries
    left of it are zeros.

    The pairwise sums are accurate to O(eps log n), far inside the 1e-12
    monotonicity and 1e-8 mass tolerances; exactly rounded sums are left to
    grid.norm and grid.mass, which snapshot analysis uses.  A function of
    its own, so that no array outlives the row.
    """
    v = block.flat[block.lo : end]
    av = np.abs(v)
    return (block.t[0], dt, np.add.reduce(v), np.add.reduce(av),
            np.add.reduce(np.square(av, out=av)), block.umax)


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
    cells = slice(1, grid.num_cells + 1)  # the grid function in the flat layout

    block = None  # the last good state after the first step
    k = 0  # index of the next snapshot time
    steps = march([initial], params, config, snaps, safety, dt_max)
    # rhs and StateBlock detect non-finite values; NumPy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for count, ((dt,), block) in enumerate(steps, 1):
                if count % report_every == 0:
                    rows.append(_log_sums(dt, block, cells.stop))
                while k < len(snaps) and block.t[0] >= snaps[k]:
                    snap = GridFunction.from_checked(grid, block.flat[cells].copy())
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
                last = GridFunction.from_checked(grid, block.flat[cells].copy())
                record.snapshots.append((block.t[0], last))
    log = np.array(rows, dtype=np.float64).reshape(-1, 6)
    dx = grid.dx
    log[:, 2:4] *= dx
    log[:, 4] = np.sqrt(dx * log[:, 4])
    log.setflags(write=False)
    record.step_reports = log
    return record
