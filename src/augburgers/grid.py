"""Uniform 1-D mesh, piecewise-constant grid functions, their norms and mass.

Grid functions represent compactly supported data on the real line, truncated
to a finite window of uniform cells; everything outside the window is taken to
be zero.  The reductions (norms, mass) return exactly ``math.fsum`` of the
cell terms, the exactly rounded sum, so results are deterministic.  fsum's
cost grows with the number of binades its input spans, and a decaying
solution (or error) reaches down to subnormals; so fsum runs on the head of
each sum, the terms within a factor 2^-64 / n of the largest, and the
neglected tail is certified not to change the rounded result (see
:func:`_exact_sum`).
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
    "norm",
    "mass",
]

_EPS = float(np.finfo(np.float64).eps)

# Head/tail split of the exact sums: with m = max|x_j| over n terms, the
# terms below m 2^-64 / n (the tail) add up to less than m 2^-63.
_TAIL_SCALE = 2.0**-64
_TAIL_BOUND = 2.0**-63
# Outside [2^-900, 2^900] for m, the scaled thresholds could lose bits to
# underflow or the shifted head sums overflow, so the full sum runs there.
_CERTIFIED_RANGE = (2.0**-900, 2.0**900)

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


def project_initial(f, grid: Grid) -> GridFunction:
    """Cell-average projection ``u_j = (1/dx) * integral of f over cell j``.

    Each cell integral uses composite Simpson with 16 subintervals.  For a
    :class:`PiecewiseInitial` the rule is applied per smooth piece within the
    cell, which keeps the projection accurate across jumps.  Any other ``f``
    is called once, on the array of every cell's nodes, and must return an
    array of that shape.
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
    fx = np.asarray(f(xs), dtype=np.float64)
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


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return p


def _exact_sum(x: np.ndarray, ax: np.ndarray) -> float:
    """``math.fsum(x)``, from a sum over the head of ``x`` where it is certified.

    ``ax`` is ``|x|``.  With m = max ax over n terms, the tail terms
    (ax < m 2^-64 / n) add less than delta = m 2^-63 in total, so the exact
    sum lies within delta of the head's.  Rounding to nearest is monotone:
    when the head's exact sums shifted by -delta and by +delta round to the
    same float, that float is the exactly rounded total.  Otherwise (the
    total lies too near a rounding boundary) the full fsum runs.  A tail of
    exact zeros needs no certificate, and no tail at all means one fsum.
    """
    n = x.size
    # ufunc.reduce skips the Python wrapper of ndarray.max: on sums of a few
    # hundred terms the call overhead is most of the helper's cost.
    m = float(np.maximum.reduce(ax))
    lo, hi = _CERTIFIED_RANGE
    if not lo <= m <= hi:
        return math.fsum(x.tolist())
    head = x[ax >= m * _TAIL_SCALE / n].tolist()
    if len(head) == n or len(head) == np.count_nonzero(x):
        return math.fsum(head)
    delta = m * _TAIL_BOUND
    below = math.fsum(head + [-delta])
    if below == math.fsum(head + [delta]):
        return below
    return math.fsum(x.tolist())


def norm(w: GridFunction, p: float) -> float:
    """Discrete L^p norm: ``(dx * sum |u_j|^p)^(1/p)``, max for p = inf.

    The sum is exactly ``math.fsum`` of the terms ``|u_j|^p``, the exactly
    rounded sum, computed on its certified head (:func:`_exact_sum`); the
    result does not depend on how the reduction is scheduled.
    """
    p = _validate_p(p)
    av = np.abs(w.values)
    if math.isinf(p):
        return float(av.max(initial=0.0))
    if p == 1.0:
        terms = av
    elif p == 2.0:
        terms = av * av
    else:
        terms = av**p
    return (w.grid.dx * _exact_sum(terms, terms)) ** (1.0 / p)


def mass(w: GridFunction) -> float:
    """Signed total mass ``dx * sum u_j``.

    The sum is exactly ``math.fsum`` of the cell values, computed on its
    certified head (:func:`_exact_sum`).
    """
    vals = w.values
    return w.grid.dx * _exact_sum(vals, np.abs(vals))
