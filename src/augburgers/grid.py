"""Uniform 1-D mesh, piecewise-constant grid functions, their norms and mass.

Grid functions represent compactly supported data on the real line, truncated
to a finite window of uniform cells; everything outside the window is taken to
be zero.  The reductions (norms, mass) return exactly ``math.fsum`` of the
cell terms, the exactly rounded sum, so results are deterministic.  fsum on
a Python list costs far more than array work, so the sums are formed by
error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
summation, Part I", 2008): each round splits the terms exactly into parts
on one coarse grid of multiples, whose sum NumPy forms exactly in any
order, and small residuals.  fsum then runs only on the few partial sums
and the residuals' rounded sum, and the result stands when that sum's
error bound cannot move it (see :func:`_exact_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "PiecewiseInitial",
    "make_grid",
    "project_initial",
    "norm",
    "norms",
    "mass",
]

_EPS = float(np.finfo(np.float64).eps)

# Outside [2^-900, 2^900] for the largest term, the extraction grid could
# reach the overflow range or its residual bound lose bits to underflow, so
# the full sum runs there.
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


def project_initial(f, grid: Grid) -> GridFunction:
    """Cell-average projection ``u_j = (1/dx) * integral of f over cell j``.

    Each cell integral uses composite Simpson with 16 subintervals, applied
    per smooth piece within the cell, which keeps the projection accurate
    across jumps; any ``f`` that is not a :class:`PiecewiseInitial` is one
    piece spanning the grid.  Each piece's function is called once, on the
    array of nodes of every cell it meets, and must return an array of that
    shape; a piece that meets no cell is not called.
    """
    pieces = f.pieces if isinstance(f, PiecewiseInitial) else ((-math.inf, math.inf, f),)
    faces = grid.faces
    n_sub = _SIMPSON_SUBINTERVALS
    avgs = np.zeros(grid.num_cells)
    for a, b, fn in pieces:
        lo = np.maximum(faces[:-1], a)
        hi = np.minimum(faces[1:], b)
        cells = np.flatnonzero(hi > lo)
        if cells.size == 0:
            continue
        lo, hi = lo[cells, None], hi[cells, None]
        # Each cell's nodes as np.linspace(lo, hi, 17) forms them.
        h = (hi - lo) / n_sub
        xs = np.arange(n_sub + 1) * h + lo
        xs[:, -1:] = hi
        fx = np.asarray(fn(xs), dtype=np.float64)
        bad = ~np.isfinite(fx)
        if bad.any():
            # A face node belongs to two cells; name the one on its right.
            x = float(xs[bad].min())
            cell = min(int(np.searchsorted(faces, x, side="right")) - 1, grid.num_cells - 1)
            raise ValueError(f"initial datum is not finite at x = {x!r} (cell {cell})")
        avgs[cells] += h[:, 0] * (fx @ _W_SIMPSON) / grid.dx
    return GridFunction(grid, avgs)


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return p


def _exact_sum(x: np.ndarray, m: float) -> float:
    """``math.fsum(x)``, from the exact partial sums of error-free extraction.

    ``m`` is ``max|x|``.  With n terms and 2^M >= n + 2, the first round
    takes sigma = 2^k >= 2^M m.  A round splits each remaining term r
    exactly into ``q = (r + sigma) - sigma`` and the residual ``r - q``:
    every q is a multiple of 2^(k-53) of magnitude at most sigma 2^-M, so
    ``np.add.reduce(q)`` is exact in any order, and every residual has
    magnitude at most 2^(k-53), so a next round takes sigma = 2^(k-53+M).
    In any order of its additions, the residuals' rounded sum is within
    ``n 2^-52 * n 2^(k-53)`` of their exact sum, so the exact total lies
    within that bound of the partial sums plus the residuals' sum.
    Rounding to nearest is monotone: when those sums shifted by -/+ the
    bound round to the same float, that float is the exactly rounded total.
    When the residuals are all zero, the partial sums are the whole sum.
    """
    n = x.size
    lo, hi = _CERTIFIED_RANGE
    if not lo <= m <= hi:
        return math.fsum(x.tolist())
    shift = (n + 1).bit_length()  # 2^M >= n + 2
    k = math.frexp(m)[1] + shift  # 2^k > 2^M m
    # 2^(2 bits) >= n^2, so the residual sum's bound is a power of two.
    bits = 2 * n.bit_length() - 105
    parts = []
    r = x
    while True:
        sigma = math.ldexp(1.0, k)
        q = r + sigma
        q -= sigma
        parts.append(float(np.add.reduce(q)))
        r = np.subtract(r, q, out=None if r is x else r)
        rest = float(np.add.reduce(r))
        bound = math.ldexp(1.0, k + bits)
        below = math.fsum(parts + [rest, -bound])
        if below == math.fsum(parts + [rest, bound]):
            return below
        if not np.logical_or.reduce(r):
            return math.fsum(parts)
        k += shift - 53


def norm(w: GridFunction, p: float) -> float:
    """Discrete L^p norm: ``(dx * sum |u_j|^p)^(1/p)``, max for p = inf.

    The sum is exactly ``math.fsum`` of the terms ``|u_j|^p``, the exactly
    rounded sum, formed by :func:`_exact_sum`; the result does not depend
    on how the reduction is scheduled.
    """
    return norms(w, (p,))[0]


def norms(w: GridFunction, ps: Sequence[float]) -> list[float]:
    """``[norm(w, p) for p in ps]``, bit for bit, from one ``|u|``."""
    ps = [_validate_p(p) for p in ps]
    av = np.abs(w.values)
    # ufunc.reduce skips the Python wrapper of ndarray.max: on sums of a few
    # hundred terms the call overhead is much of the sum's cost.
    m = float(np.maximum.reduce(av))
    out = []
    for p in ps:
        if math.isinf(p):
            out.append(m)
            continue
        if p == 1.0:
            terms, top = av, m
        elif p == 2.0:
            # Rounding is monotone, so the largest square is m * m.
            terms, top = av * av, m * m
        else:
            terms = av**p
            top = float(np.maximum.reduce(terms))
        out.append((w.grid.dx * _exact_sum(terms, top)) ** (1.0 / p))
    return out


def mass(w: GridFunction) -> float:
    """Signed total mass ``dx * sum u_j``.

    The sum is exactly ``math.fsum`` of the cell values, formed by
    :func:`_exact_sum`.
    """
    vals = w.values
    return w.grid.dx * _exact_sum(vals, float(np.maximum.reduce(np.abs(vals))))
