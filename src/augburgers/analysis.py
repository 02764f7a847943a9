"""Post-processing: profile-error rates, convergence studies and executable
forms of the discrete functional inequalities.

Everything here is a pure function of run records, grid functions and
arrays; nothing here sets up or steps a run.  The runs of a convergence
study are made by the ``selfconv`` command of :mod:`augburgers.cli`, and
the inequality checks take one entry per case and return arrays.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .grid import Grid, GridFunction, norm
from .profile import AsymptoticProfile, sample_on_grid
from .scheme import RunRecord

__all__ = [
    "RateSeries",
    "NWaveDiagnostic",
    "InequalityCheck",
    "scaled_profile_error",
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
    finals: Sequence[GridFunction],
) -> list[tuple[tuple[float, float], float]]:
    """Successive L1 differences between final states at nested resolutions.

    ``finals`` holds one run's final state per mesh size, coarsest first,
    on meshes that :func:`check_nested` accepts.  Every finer state is
    restricted to the next coarser mesh by cell-pair averaging (a repeated
    mesh size is compared as it is), giving ``((dx_fine, dx_coarse),
    ||restrict(u_fine) - u_coarse||_1)`` per pair.
    """
    out = []
    for coarse_u, fine_u in zip(finals, finals[1:]):
        dxc, dxf = coarse_u.grid.dx, fine_u.grid.dx
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
    """Both sides and the verdict, one array entry per case."""

    holds: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def gns_inequality_check(w: Sequence[GridFunction], p) -> InequalityCheck:
    """Discrete Gagliardo-Nirenberg inequality for piecewise-constant data.

    Verifies ``||w||_p^(p(p+1)/(p-1)) <= 4 ||w||_1^(2p/(p-1)) *
    ||d+(|w|^(p/2))||_2^2`` by direct evaluation.  The gradient norm is taken
    on the zero extension (one padding cell per side), so the boundary jumps
    of compactly supported data are counted.

    ``w`` is a sequence of grid functions and ``p`` one float for all of
    them or a sequence with one per function.  They are evaluated as one
    zero-padded array with a row per function.  The norms are pairwise
    sums, within a few ulps of :func:`augburgers.grid.norm`.
    """
    ws = list(w)
    p = np.broadcast_to(np.asarray(p, dtype=np.float64), (len(ws),))[:, None]
    if not np.all(p > 1.0):
        raise ValueError(f"p must exceed 1, got {p.ravel()}")
    av = np.zeros((len(ws), 2 + max(f.grid.num_cells for f in ws)))
    for row, f in zip(av, ws):
        row[1 : f.grid.num_cells + 1] = f.values
    np.abs(av, out=av)
    if not np.all(av.any(axis=1)):
        raise ValueError("w must not be identically zero")
    dx = np.array([f.grid.dx for f in ws])[:, None]
    grad = np.diff(av ** (p / 2.0), axis=1) / dx
    grad2 = dx * (grad * grad).sum(axis=1, keepdims=True)
    norm_p = (dx * (av**p).sum(axis=1, keepdims=True)) ** (1.0 / p)
    lhs = norm_p ** (p * (p + 1.0) / (p - 1.0))
    rhs = 4.0 * (dx * av.sum(axis=1, keepdims=True)) ** (2.0 * p / (p - 1.0)) * grad2
    return InequalityCheck(holds=(lhs <= rhs)[:, 0], lhs=lhs[:, 0], rhs=rhs[:, 0])


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
    w_left, w, w_right = profile_eval(profile, t, np.array([x - h, x, x + h])).tolist()
    w_t = (profile_eval(profile, t + h, x) - profile_eval(profile, t - h, x)) / (2.0 * h)
    w_x = (w_right - w_left) / (2.0 * h)
    w_xx = (w_right - 2.0 * w + w_left) / (h * h)
    return w_t - w * w_x - profile.viscosity * w_xx


def series_lemma_check(a, phi, n) -> InequalityCheck:
    """Geometric-series bound behind the kernel truncation estimates.

    For 0 < a < 1 and b = exp(i phi) on the unit circle, checks by direct
    summation that

        | sum_{k<=n} a^k (b^k - 1) + (sum_{k<=n} k a^k)(1/b - 1) |
            <= |b - 1|^2 * a / (1 - a)^3.

    ``a``, ``phi`` and ``n`` are sequences with one entry per case.  The
    sums loop over k, so each case adds its terms in ascending k.
    """
    a, phi, n = (np.asarray(v, dtype=np.float64) for v in (a, phi, n))
    if not (np.all(a > 0.0) and np.all(1.0 > a)):
        raise ValueError(f"a must lie in (0, 1), got {a}")
    if not np.all(n >= 1.0):
        raise ValueError(f"n must be >= 1, got {n}")
    # b^k - 1 = 2 sin(k phi/2) (i cos - sin)(k phi/2) and 1/b - 1 =
    # -2 sin(phi/2) (sin + i cos)(phi/2), summed as real and imaginary parts:
    # the sine forms keep full relative accuracy when phi is tiny, where
    # subtracting 1 from b^k would cancel.
    re, im, s2 = np.zeros(a.shape), np.zeros(a.shape), np.zeros(a.shape)
    for k in range(1, int(n.max()) + 1):
        ak = np.where(n >= k, a**k, 0.0)
        half = 0.5 * k * phi
        sin = np.sin(half)
        sk = 2.0 * ak * sin
        re -= sk * sin
        im += sk * np.cos(half)
        s2 += k * ak
    sin, cos = np.sin(0.5 * phi), np.cos(0.5 * phi)
    s2 *= 2.0 * sin
    lhs = np.hypot(re - s2 * sin, im - s2 * cos)
    rhs = 4.0 * sin**2 * a / (1.0 - a) ** 3
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
    """Nodes, ascending, and weights of the _GL_NODES-point rule on [-1, 1].

    Newton's iteration on ``P_n`` from Chebyshev-like guesses, with ``P_n``
    and ``P_n'`` from the three-term recurrence
    ``j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}``; the weights are
    ``2 / ((1 - x^2) P_n'(x)^2)``.  numpy.polynomial would give the same
    rule, but importing it costs about 0.8 MB of resident memory.
    """
    n = _GL_NODES
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(n), x.copy()
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-16:
            break
    # The rule is symmetric: average out the last roundoff.
    x = 0.5 * (x - x[::-1])
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, 0.5 * (w + w[::-1])


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
