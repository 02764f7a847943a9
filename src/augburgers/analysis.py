"""Post-processing: profile-error rates, decay monitors, convergence studies
and executable forms of the discrete functional inequalities.

Everything here is a pure function of immutable run records and grid
functions.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import scheme
from .grid import Grid, GridFunction, d_plus, make_grid, norm, zero_pad
from .kernel import DEFAULT_TAIL_TOL, build, choose_n
from .profile import AsymptoticProfile, sample_on_grid
from .scheme import CorrectorMode, FluxKind, PhysicalParams, RunRecord, SchemeConfig

__all__ = [
    "RateSeries",
    "NWaveDiagnostic",
    "InequalityCheck",
    "scaled_profile_error",
    "decay_monitor",
    "grad_decay_monitor",
    "restrict_pairwise",
    "check_nested",
    "self_convergence",
    "n_wave_diagnostic",
    "gns_inequality_check",
    "series_lemma_check",
    "pde_residual",
    "profile_integral",
]


def _rate_exponent(p: float) -> float:
    if math.isinf(p):
        return 0.5
    return 0.5 * (1.0 - 1.0 / p)


@dataclass(frozen=True)
class RateSeries:
    """Scaled profile errors ``t^((1/2)(1-1/p)) * ||u(t) - profile(t)||_p``."""

    p: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("rate series times must be strictly increasing")
        if np.any(self.values < 0.0):
            raise ValueError("scaled errors must be nonnegative")


def scaled_profile_error(
    record: RunRecord,
    profile: AsymptoticProfile,
    p: float,
    samples: Mapping[float, GridFunction] | None = None,
) -> RateSeries:
    """Rate-weighted distance between snapshots and the diffusive wave.

    Snapshots at t = 0 are skipped with a warning (the profile is singular
    there).  ``samples`` maps snapshot times to the wave already sampled on
    the snapshot grid, so callers comparing several runs or norms sample
    each time once; times it lacks are sampled here.
    """
    times = []
    values = []
    for t, u in record.snapshots:
        if t <= 0.0:
            warnings.warn(
                "skipping t = 0 snapshot in profile-error series", stacklevel=2
            )
            continue
        prof = (samples or {}).get(t)
        if prof is None:
            prof = sample_on_grid(profile, u.grid, t)
        err = norm(GridFunction(u.grid, u.values - prof.values), p)
        times.append(t)
        values.append(t ** _rate_exponent(p) * err)
    return RateSeries(p=p, times=np.asarray(times), values=np.asarray(values))


def decay_monitor(record: RunRecord, p: float) -> list[tuple[float, float, float]]:
    """Per-snapshot ``(t, ||u||_p, ||u||_p * t^((1/2)(1-1/p)) / ||u0||_1)``.

    The third entry stays bounded for integrable data; its supremum is the
    empirical decay constant for exponent p.
    """
    if not record.snapshots:
        raise ValueError("record has no snapshots")
    u0 = record.snapshots[0][1]
    l1_0 = norm(u0, 1)
    out = []
    for t, u in record.snapshots:
        n = norm(u, p)
        if l1_0 == 0.0:
            ratio = 0.0
        else:
            ratio = n * t ** _rate_exponent(p) / l1_0
        out.append((t, n, ratio))
    return out


def grad_decay_monitor(record: RunRecord, p: float) -> list[tuple[float, float]]:
    """Per-snapshot ``(t, ||d+ u||_p * t^((1/2)(1-1/p) + 1/2))``; bounded."""
    if not record.snapshots:
        raise ValueError("record has no snapshots")
    expo = _rate_exponent(p) + 0.5
    return [(t, norm(d_plus(u), p) * t**expo) for t, u in record.snapshots]


def restrict_pairwise(w: GridFunction, coarse: Grid) -> GridFunction:
    """Average cell pairs of a 2x finer function onto ``coarse``.

    Mass preserving and consistent with cell-average semantics.  The fine
    grid must cover the same extent with exactly twice the cells.
    """
    fine = w.grid
    if fine.num_cells != 2 * coarse.num_cells:
        raise ValueError(
            f"fine grid has {fine.num_cells} cells, expected "
            f"{2 * coarse.num_cells} for pairwise restriction"
        )
    tol = 1e-9 * max(1.0, abs(coarse.x_left), abs(coarse.x_right))
    if (
        abs(fine.x_left - coarse.x_left) > tol
        or abs(fine.x_right - coarse.x_right) > tol
    ):
        raise ValueError("fine and coarse grids must span the same interval")
    paired = w.values.reshape(coarse.num_cells, 2)
    return GridFunction(coarse, 0.5 * (paired[:, 0] + paired[:, 1]))


def check_nested(dxs: Sequence[float]) -> None:
    """Raise ``ValueError`` unless ``dxs`` holds at least two positive finite
    mesh sizes, each equal to or half of the previous one."""
    if len(dxs) < 2:
        raise ValueError("need at least two mesh sizes")
    for d in dxs:
        if not 0.0 < d < math.inf:
            raise ValueError(f"mesh sizes must be positive and finite, got {d}")
    for a, b in zip(dxs, dxs[1:]):
        ratio = a / b
        if not (abs(ratio - 2.0) < 1e-9 or abs(ratio - 1.0) < 1e-9):
            raise ValueError(
                f"mesh sizes must halve (or repeat): got {a} then {b}"
            )


def self_convergence(
    params: PhysicalParams,
    initial,
    x_left: float,
    x_right: float,
    dx_list: Sequence[float],
    t_check: float,
    flux: FluxKind = FluxKind.ENGQUIST_OSHER,
    corrector_mode: CorrectorMode = CorrectorMode.CORRECTED,
    theta: float = 1.0,
    tail_tol: float = DEFAULT_TAIL_TOL,
    safety: float = 0.9,
    dt_max: float = scheme.DEFAULT_DT_MAX,
) -> list[tuple[tuple[float, float], float]]:
    """Successive L1 differences between runs at nested resolutions.

    Runs the same initial datum (projected per grid) at each mesh size,
    restricts every finer solution to the next coarser mesh by cell-pair
    averaging and reports ``((dx_fine, dx_coarse), ||restrict(u_fine) -
    u_coarse||_1)`` at ``t_check``.  Mesh sizes must be nested: each entry
    equal to or half of the previous one.  Each mesh gets the kernel
    quadrature of relaxation time ``theta`` truncated at ``tail_tol``.
    """
    from .grid import project_initial

    dxs = [float(d) for d in dx_list]
    check_nested(dxs)
    finals: list[GridFunction] = []
    for dx in dxs:
        grid = make_grid(x_left, x_right, dx)
        quad = build(dx, theta, choose_n(dx, theta, tail_tol))
        config = SchemeConfig(
            flux=flux, quadrature=quad, corrector_mode=corrector_mode, grid=grid
        )
        u0 = project_initial(initial, grid)
        record = scheme.run(
            u0,
            params,
            config,
            t_end=t_check,
            snapshot_times=[t_check],
            safety=safety,
            dt_max=dt_max,
        )
        finals.append(record.snapshots[-1][1])
    out = []
    for coarse_u, fine_u, dxc, dxf in zip(finals, finals[1:], dxs, dxs[1:]):
        if abs(dxc / dxf - 1.0) < 1e-9:
            restricted = fine_u
        else:
            restricted = restrict_pairwise(fine_u, coarse_u.grid)
        diff = norm(
            GridFunction(coarse_u.grid, restricted.values - coarse_u.values), 1
        )
        out.append(((dxf, dxc), diff))
    return out


@dataclass(frozen=True)
class NWaveDiagnostic:
    min: float
    max: float
    positive_mass: float
    negative_mass: float


def n_wave_diagnostic(w: GridFunction) -> NWaveDiagnostic:
    """Extrema and signed part masses; tracks whether a two-sign wave survives."""
    vals = w.values
    dx = w.grid.dx
    pos = dx * math.fsum(np.maximum(vals, 0.0).tolist())
    neg = dx * math.fsum(np.minimum(vals, 0.0).tolist())
    return NWaveDiagnostic(
        min=float(vals.min()),
        max=float(vals.max()),
        positive_mass=pos,
        negative_mass=neg,
    )


@dataclass(frozen=True)
class InequalityCheck:
    holds: bool
    lhs: float
    rhs: float


def gns_inequality_check(w: GridFunction, p: float) -> InequalityCheck:
    """Discrete Gagliardo-Nirenberg inequality for piecewise-constant data.

    Verifies ``||w||_p^(p(p+1)/(p-1)) <= 4 ||w||_1^(2p/(p-1)) *
    ||d+(|w|^(p/2))||_2^2`` by direct evaluation.  The gradient norm is taken
    on the zero extension (one padding cell per side), so the boundary jumps
    of compactly supported data are counted.
    """
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if not np.any(w.values):
        raise ValueError("w must not be identically zero")
    g = GridFunction(w.grid, np.abs(w.values) ** (p / 2.0))
    grad = norm(d_plus(zero_pad(g, 1, 1)), 2)
    lhs = norm(w, p) ** (p * (p + 1.0) / (p - 1.0))
    rhs = 4.0 * norm(w, 1) ** (2.0 * p / (p - 1.0)) * grad * grad
    return InequalityCheck(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def pde_residual(profile: AsymptoticProfile, t: float, x: float, h: float) -> float:
    """Central-difference residual of ``w_t - w w_x - a w_xx`` at (t, x).

    The profile solves the equation exactly, so the residual is pure
    discretization error and shrinks like O(h^2); comparing residuals across
    step sizes measures the profile's correctness independently of its
    closed form.
    """
    from .profile import eval as profile_eval

    if not h > 0.0 or not t - h > 0.0:
        raise ValueError("need 0 < h < t for the centered time difference")
    w = profile_eval(profile, t, x)
    w_t = (profile_eval(profile, t + h, x) - profile_eval(profile, t - h, x)) / (
        2.0 * h
    )
    w_x = (profile_eval(profile, t, x + h) - profile_eval(profile, t, x - h)) / (
        2.0 * h
    )
    w_xx = (
        profile_eval(profile, t, x + h)
        - 2.0 * w
        + profile_eval(profile, t, x - h)
    ) / (h * h)
    return w_t - w * w_x - profile.viscosity * w_xx


def series_lemma_check(a: float, phi: float, n: int) -> InequalityCheck:
    """Geometric-series bound behind the kernel truncation estimates.

    For 0 < a < 1 and b = exp(i phi) on the unit circle, checks by direct
    complex summation that

        | sum_{k<=n} a^k (b^k - 1) + (sum_{k<=n} k a^k)(1/b - 1) |
            <= |b - 1|^2 * a / (1 - a)^3.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # b^k - 1 = 2i sin(k phi/2) e^{ik phi/2} and 1/b - 1 = -2i sin(phi/2)
    # e^{-i phi/2}: the sine forms keep full relative accuracy when phi is
    # tiny, where subtracting 1 from b^k would cancel.
    s1 = 0j
    s2 = 0.0
    for k in range(1, n + 1):
        ak = a**k
        half = 0.5 * k * phi
        s1 += ak * 2j * math.sin(half) * cmath.exp(1j * half)
        s2 += k * ak
    half = 0.5 * phi
    lhs = abs(s1 - s2 * 2j * math.sin(half) * cmath.exp(-1j * half))
    rhs = 4.0 * math.sin(half) ** 2 * a / (1.0 - a) ** 3
    return InequalityCheck(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


# Rule of profile_integral.  The two caps bound the work on a function the
# rule cannot resolve; the waves of the profile-mass check suite need at most
# 7 levels and 6 open panels.
_GL_NODES = 10
_GL_PANELS = 64
_GL_TOL = 1e-10
_GL_MAX_LEVELS = 30
_GL_MAX_OPEN = 4096


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GL_NODES)


def profile_integral(profile: AsymptoticProfile, t: float, lim: float) -> float | None:
    """Integral of the profile at time t over [-lim, lim], or None when the
    adaptive rule has not accepted every panel within 30 levels and 4096
    open panels.

    Vectorized adaptive Gauss-Legendre: each level evaluates every open
    panel and both of its halves in one ``profile.eval`` call, accepts the
    halves of a panel once they agree with the whole to 1e-10 per unit
    length, and splits the rest.  The accepted values are summed by fsum.
    """
    from .profile import eval as profile_eval

    nodes, weights = _gauss_legendre()
    edges = np.linspace(-lim, lim, _GL_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    tol = _GL_TOL / (2.0 * lim)
    accepted = []
    for _ in range(_GL_MAX_LEVELS):
        k = lo.size
        mid = 0.5 * (lo + hi)
        # Rows: every open panel, then its left halves, then its right halves.
        a = np.concatenate([lo, lo, mid])
        b = np.concatenate([hi, mid, hi])
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * nodes
        vals = half * (profile_eval(profile, t, x) @ weights)
        whole, halves = vals[:k], vals[k : 2 * k] + vals[2 * k :]
        done = np.abs(whole - halves) <= tol * (hi - lo)
        accepted.append(halves[done])
        split = ~done
        lo = np.concatenate([lo[split], mid[split]])
        hi = np.concatenate([mid[split], hi[split]])
        if lo.size == 0:
            return math.fsum(np.concatenate(accepted).tolist())
        if lo.size > _GL_MAX_OPEN:
            return None
    return None
