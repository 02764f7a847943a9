"""Uniform 1-D mesh, piecewise-constant grid functions and discrete calculus.

Grid functions represent compactly supported data on the real line, truncated
to a finite window of uniform cells; everything outside the window is taken to
be zero.  All reductions (norms, mass) run in fixed cell order with an
error-free-transform accumulator (``math.fsum``) so results are deterministic
and exactly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "PiecewiseInitial",
    "make_grid",
    "project_initial",
    "d_plus",
    "d_minus",
    "norm",
    "mass",
    "zero_pad",
]

_EPS = float(np.finfo(np.float64).eps)

# Subintervals of the composite Simpson rule used per cell (and per smooth
# piece within a cell).  Must be even.
_SIMPSON_SUBINTERVALS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform mesh of ``num_cells`` cells of width ``dx`` on [x_left, x_right].

    Cell j has center ``x_left + (j + 1/2) * dx`` and faces at
    ``x_left + j * dx`` and ``x_left + (j + 1) * dx``.
    """

    x_left: float
    x_right: float
    dx: float
    num_cells: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_left) and math.isfinite(self.x_right)):
            raise ValueError("grid endpoints must be finite")
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")
        if self.num_cells < 2:
            raise ValueError(f"num_cells must be >= 2, got {self.num_cells}")
        span = self.x_right - self.x_left
        extent = self.num_cells * self.dx
        tol = 128.0 * _EPS * max(abs(self.x_left), abs(self.x_right), extent, 1.0)
        if abs(span - extent) > tol:
            raise ValueError(
                f"inconsistent grid: x_right - x_left = {span!r} but "
                f"num_cells * dx = {extent!r}"
            )

    @cached_property
    def cell_centers(self) -> np.ndarray:
        j = np.arange(self.num_cells, dtype=np.float64)
        out = self.x_left + (j + 0.5) * self.dx
        out.setflags(write=False)
        return out

    @cached_property
    def faces(self) -> np.ndarray:
        j = np.arange(self.num_cells + 1, dtype=np.float64)
        out = self.x_left + j * self.dx
        out.setflags(write=False)
        return out


def make_grid(x_left: float, x_right: float, dx: float) -> Grid:
    """Build a grid of mesh size ``dx`` spanning [x_left, x_right].

    The span must be an integer multiple of ``dx`` up to roundoff.
    """
    if not dx > 0.0:
        raise ValueError(f"dx must be positive, got {dx}")
    n = int(round((x_right - x_left) / dx))
    return Grid(x_left=x_left, x_right=x_right, dx=dx, num_cells=n)


@dataclass
class GridFunction:
    """Piecewise-constant function: one value per cell, zero outside the grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.num_cells,):
            raise ValueError(
                f"expected {self.grid.num_cells} cell values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"non-finite value {vals[bad]!r} in cell {bad}")
        self.values = vals

    @classmethod
    def from_checked(cls, grid: Grid, values: np.ndarray) -> "GridFunction":
        """Wrap float64 values of the grid's shape that the caller has already
        checked to be finite, without a second validation pass."""
        out = cls.__new__(cls)
        out.grid = grid
        out.values = values
        return out

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


@dataclass(frozen=True)
class PiecewiseInitial:
    """Initial datum assembled from smooth pieces, zero off their union.

    Each piece is ``(a, b, f)`` with ``f`` smooth on the closed interval
    [a, b].  Keeping the pieces explicit lets the cell-average projection
    integrate each smooth piece separately, so jumps at piece boundaries do
    not degrade the quadrature.
    """

    pieces: tuple[tuple[float, float, Callable[[np.ndarray], np.ndarray]], ...]

    def __post_init__(self) -> None:
        for a, b, _ in self.pieces:
            if not a < b:
                raise ValueError(f"piece interval [{a}, {b}] is empty")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for a, b, f in self.pieces:
            sel = (x >= a) & (x <= b)
            if np.any(sel):
                out[sel] = f(x[sel])
        return out

    @property
    def breakpoints(self) -> tuple[float, ...]:
        pts: list[float] = []
        for a, b, _ in self.pieces:
            pts.extend((a, b))
        return tuple(sorted(set(pts)))


def _simpson_weights(n_sub: int) -> np.ndarray:
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


_W_SIMPSON = _simpson_weights(_SIMPSON_SUBINTERVALS)


def _segment_integral(f, lo: float, hi: float, cell: int) -> float:
    """Composite Simpson integral of ``f`` on [lo, hi] (16 subintervals)."""
    xs = np.linspace(lo, hi, _SIMPSON_SUBINTERVALS + 1)
    fx = np.asarray(f(xs), dtype=np.float64)
    if not np.isfinite(fx).all():
        bad = int(np.flatnonzero(~np.isfinite(fx))[0])
        raise ValueError(
            f"initial datum is not finite at x = {xs[bad]!r} (cell {cell})"
        )
    h = (hi - lo) / _SIMPSON_SUBINTERVALS
    return h * float(_W_SIMPSON @ fx)


def _call_on_array(f, xs: np.ndarray) -> np.ndarray:
    try:
        fx = np.asarray(f(xs), dtype=np.float64)
        if fx.shape == xs.shape:
            return fx
    except (TypeError, ValueError):
        pass
    return np.asarray([float(f(x)) for x in xs], dtype=np.float64)


def project_initial(f, grid: Grid) -> GridFunction:
    """Cell-average projection ``u_j = (1/dx) * integral of f over cell j``.

    Each cell integral uses composite Simpson with 16 subintervals.  For a
    :class:`PiecewiseInitial` the rule is applied per smooth piece within the
    cell, which keeps the projection accurate across jumps.
    """
    n = grid.num_cells
    if isinstance(f, PiecewiseInitial):
        avgs = np.zeros(n)
        faces = grid.faces
        for a, b, fn in f.pieces:
            j_lo = max(0, int(math.floor((a - grid.x_left) / grid.dx)))
            j_hi = min(n - 1, int(math.ceil((b - grid.x_left) / grid.dx)))
            for j in range(j_lo, j_hi + 1):
                lo = max(float(faces[j]), a)
                hi = min(float(faces[j + 1]), b)
                if hi > lo:
                    avgs[j] += _segment_integral(fn, lo, hi, j) / grid.dx
        return GridFunction(grid, avgs)

    n_sub = _SIMPSON_SUBINTERVALS
    xs = np.linspace(grid.x_left, grid.x_right, n * n_sub + 1)
    fx = _call_on_array(f, xs)
    if not np.isfinite(fx).all():
        bad = int(np.flatnonzero(~np.isfinite(fx))[0])
        cell = min(bad // n_sub, n - 1)
        raise ValueError(
            f"initial datum is not finite at x = {xs[bad]!r} (cell {cell})"
        )
    idx = np.arange(n)[:, None] * n_sub + np.arange(n_sub + 1)[None, :]
    h = grid.dx / n_sub
    avgs = (fx[idx] @ _W_SIMPSON) * (h / grid.dx)
    return GridFunction(grid, avgs)


def d_plus(w: GridFunction) -> GridFunction:
    """Forward difference (w_{j+1} - w_j)/dx with zero extension on the right."""
    return GridFunction(w.grid, np.diff(w.values, append=0.0) / w.grid.dx)


def d_minus(w: GridFunction) -> GridFunction:
    """Backward difference (w_j - w_{j-1})/dx with zero extension on the left."""
    return GridFunction(w.grid, np.diff(w.values, prepend=0.0) / w.grid.dx)


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return p


def norm(w: GridFunction, p: float) -> float:
    """Discrete L^p norm: ``(dx * sum |u_j|^p)^(1/p)``, max for p = inf.

    The sum runs in fixed cell order through an exactly rounded accumulator,
    so the result does not depend on how the reduction is scheduled.
    """
    p = _validate_p(p)
    av = np.abs(w.values)
    if math.isinf(p):
        return float(av.max(initial=0.0))
    if p == 1.0:
        s = math.fsum(av.tolist())
    elif p == 2.0:
        s = math.fsum((av * av).tolist())
    else:
        s = math.fsum((av**p).tolist())
    return (w.grid.dx * s) ** (1.0 / p)


def mass(w: GridFunction) -> float:
    """Signed total mass ``dx * sum u_j`` (exactly rounded accumulation)."""
    return w.grid.dx * math.fsum(w.values.tolist())


def zero_pad(w: GridFunction, left: int, right: int) -> GridFunction:
    """Embed ``w`` in a grid extended by zero cells on each side.

    Padding makes the implicit zero extension explicit, e.g. so that forward
    and backward differences carry the boundary jumps of compactly supported
    data.
    """
    if left < 0 or right < 0:
        raise ValueError("padding must be nonnegative")
    g = w.grid
    new = Grid(
        x_left=g.x_left - left * g.dx,
        x_right=g.x_right + right * g.dx,
        dx=g.dx,
        num_cells=g.num_cells + left + right,
    )
    vals = np.zeros(new.num_cells)
    vals[left : left + g.num_cells] = w.values
    return GridFunction(new, vals)
