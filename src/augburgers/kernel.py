"""One-sided exponential relaxation kernel and its truncated quadrature.

The memory term convolves the solution with ``K(z) = exp(-z/theta)/theta``
for ``z > 0``.  On a mesh of size ``dx`` the convolution is replaced by a
truncated sum with weights equal to the exact integral of the kernel over
each cell,

    w_m = exp(-(m-1)*h) * (1 - exp(-h)),   m = 1..N,   h = dx/theta.

Both factors are at most 1, so the weights stay finite however small theta
is; the equal form ``exp(-m*h) * (exp(h) - 1)`` overflows once h exceeds
about 709.

Three derived factors measure how much of the kernel's zeroth, first and
second moments the truncated sum retains:

    moment0 = sum w_m                      -> 1
    moment1 = h * sum m w_m                -> 1
    moment2 = (h^2/2) * sum m(m-1) w_m     -> 1

as dx -> 0 with N*h -> infinity.  moment0 and moment1 multiply the local
terms of the semi-discrete scheme; moment2 sets the effective viscosity of
the large-time profile; ``stability_sum = sum (m+1) w_m = moment1/h + moment0``
enters the explicit time-step bound.

The weights are geometric, ``w_m = p q^(m-1)`` with ``q = exp(-h)`` and
``p = 1 - q``, so every moment has a closed form, evaluated in O(1) however
large N is.  With X ~ Binomial(N+1, p),

    moment0 = 1 - q^N
    moment1 = (h/p) * P(X >= 2)
    moment2 = (h^2 q/p^2) * P(X >= 3)

by ``sum_{j<=K} C(j+k-1, k-1) q^j p^k = P(Binomial(K+k, p) >= k)``.  The
first factors are the untruncated moments, the binomial tails what the
truncation keeps.  While the mean (N+1)p is below 1 a tail is summed upward
from its first term, all terms positive; above, it is ``1 - P(X < k)``, then
at least 1/27.  So nothing cancels as N*h goes to 0, and moment2 is exactly
0 at N = 1.

:class:`KernelQuadrature` stores no weights: N grows like theta/dx, and the
scheme needs only q, p and N.  Its memory sum is their recurrence
``y_j = q y_{j-1} + x_j`` (see :mod:`augburgers.scheme`), which
:func:`_recurrence` runs blocked, as products with the triangular Toeplitz
matrices of :func:`_levels` that end in one dense product.
:meth:`KernelQuadrature.weights` builds a head of the weights for checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_TAIL_TOL",
    "KernelQuadrature",
    "build",
    "choose_n",
]

# Default bound on the kernel mass neglected by the truncation.
DEFAULT_TAIL_TOL = 1e-8

# Entries per block of the blocked recurrence, and the most inputs of its
# dense top level: for one case 32 and 128 (128 kB), so that the 101 block
# carries of the 3,200-cell reference grid are one product.  Several cases
# take one matrix each per level, 16 and 32: 2 kB and 8 kB per case, and a
# batched 16-entry block product is the quicker on the rows of ``check``.
_BLOCK = 32
_TOP = 128
_CASES_BLOCK = 16
_CASES_TOP = 32


def _mesh_ratio(dx: float, theta: float) -> float:
    """``h = dx/theta``, checked to be a positive finite float."""
    if not dx > 0.0:
        raise ValueError(f"dx must be positive, got {dx}")
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    h = dx / theta
    if not 0.0 < h < math.inf:
        raise ValueError(f"dx/theta = {dx!r}/{theta!r} is not a positive finite float")
    return h


def _binomial_tail(n: int, h: float, k: int) -> float:
    """``P(X >= k)`` for X ~ Binomial(n, p) with ``p = 1 - exp(-h)``."""
    if n < k:
        return 0.0
    p = -math.expm1(-h)

    def pmf(j: int) -> float:
        coef = 1.0
        for i in range(j):
            coef *= (n - i) * p / (i + 1)
        return coef * math.exp(-(n - j) * h)

    if n * p >= 1.0:
        return 1.0 - math.fsum(pmf(j) for j in range(k))
    # Here p < 1/2, so the term ratio (n - j) p / ((j + 1) q) is below
    # 2/(j + 1): the sum converges within a few dozen terms.
    ratio = math.expm1(h)
    total, j, term = 0.0, k, pmf(k)
    while total + term != total:
        total += term
        term *= (n - j) * ratio / (j + 1)
        j += 1
    return total


@dataclass(frozen=True)
class KernelQuadrature:
    """Truncated kernel quadrature of N = ``n_terms`` weights at mesh size dx.

    The moment factors are computed from their closed forms at construction.
    Immutable after construction; safe to share across threads.
    ``stability_sum`` holds ``sum (m+1) w_m``, the combination entering the
    explicit time-step bound.
    """

    dx: float
    theta: float
    n_terms: int
    moment0: float = field(init=False)
    moment1: float = field(init=False)
    moment2: float = field(init=False)
    stability_sum: float = field(init=False)

    def __post_init__(self) -> None:
        h = _mesh_ratio(self.dx, self.theta)
        n = self.n_terms
        if n < 1:
            raise ValueError(f"n_terms must be >= 1, got {n}")
        r = h / -math.expm1(-h)
        object.__setattr__(self, "moment0", -math.expm1(-n * h))
        object.__setattr__(self, "moment1", r * _binomial_tail(n + 1, h, 2))
        object.__setattr__(self, "moment2", r * math.exp(-h) * r * _binomial_tail(n + 1, h, 3))
        object.__setattr__(self, "stability_sum", self.moment1 / h + self.moment0)

    def weights(self, count: int) -> np.ndarray:
        """The first ``min(count, n_terms)`` weights, each from its own
        closed form (no recurrence, so the far tail cannot accumulate drift);
        weights that underflow to zero are kept."""
        h = self.dx / self.theta
        k = np.arange(min(count, self.n_terms), dtype=np.float64)
        return np.exp(-k * h) * -math.expm1(-h)


def build(dx: float, theta: float, n_terms: int) -> KernelQuadrature:
    """The truncated quadrature of N = ``n_terms`` weights at mesh size dx."""
    return KernelQuadrature(dx=dx, theta=theta, n_terms=n_terms)


def choose_n(dx: float, theta: float, tail_tol: float) -> int:
    """Smallest N with ``exp(-N*dx/theta) <= tail_tol``.

    This bounds the neglected kernel mass: ``1 - moment0 <= tail_tol``.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    h = _mesh_ratio(dx, theta)
    n = max(1, math.ceil(-math.log(tail_tol) / h))
    # The ceiling of a rounded quotient can land one off in either direction
    # when -log(tail_tol)/h is an exact integer; fix up against the defining
    # inequality itself.  Two steps each way at most: once n passes 2^53 a
    # step no longer changes n*h in floating point.
    for _ in range(2):
        if n > 1 and math.exp(-(n - 1) * h) <= tail_tol:
            n -= 1
    for _ in range(2):
        if math.exp(-n * h) > tail_tol:
            n += 1
    return n


def _levels(quadratures, width: int) -> tuple:
    """``(T, e)`` per level of :func:`_recurrence` for the ratios
    ``q = exp(-dx/theta)`` of one or more quadratures (cases), on inputs of
    at most ``width`` entries.

    Level k has ratio ``exp(-span)`` with ``span = b^k dx/theta`` for
    blocks of b entries.  ``T[a, c] = exp(-(c - a) span)`` for ``a <= c``,
    else 0, gives the outputs of ``T.shape[-1]`` inputs from a zero start.
    A level of more inputs than the top (_TOP, for several cases
    _CASES_TOP) is blocked: T is the b x b matrix of one block (b is _BLOCK,
    for several cases _CASES_BLOCK), and ``e[a] = exp(-(b - a) span)`` gives
    a block's last output times ``exp(-span)``, the carry to the next block,
    whose carries obey level k + 1.  The levels end in one dense level of
    at most top inputs, or in a blocked level whose e is None: every case's
    carries underflow (``exp(-span) == 0``).  Memory per case is
    ``O(top^2 + b^2 log width)``.  One case gets a 2-D T and a 1-D e,
    several stacks of one per case.
    """
    block, top = (_BLOCK, _TOP) if len(quadratures) == 1 else (_CASES_BLOCK, _CASES_TOP)
    span = np.array([q.dx / q.theta for q in quadratures]).reshape(-1, 1, 1)
    levels = []
    size = width
    while True:
        cut = size if size <= top else block
        d = np.arange(cut, dtype=np.float64)
        lag = d[None, :] - d[:, None]
        t = np.exp(-np.where(lag >= 0.0, lag, np.inf) * span)
        e = None
        if size > top:
            e = np.exp(-(block - d)[:, None] * span)
            if not e.any():
                e = None
        if len(quadratures) == 1:
            t, e = t[0], None if e is None else e[0, :, 0]
        levels.append((t, e))
        if e is None:
            return tuple(levels)
        size = -(-size // block)
        span = span * block


def _recurrence(x: np.ndarray, levels, level: int = 0) -> np.ndarray:
    """``y_j = r y_{j-1} + x_j`` along the last axis of ``x`` from
    ``y_{-1} = 0``, with ``r`` the ratio of ``levels[level]``; for levels of
    several quadratures ``x`` is ``(cases, states, n)``.  ``x`` is
    overwritten.

    Inputs that fit the level's matrix are one product with it.  Else a
    block's outputs are its inputs times the matrix once r times the
    previous block's last output is added to its first input.  Those
    carries obey the same recurrence one level up, on the inputs times e.
    """
    t, e = levels[level]
    n, block = x.shape[-1], t.shape[-1]
    if n <= block:
        return x @ t[..., :n, :n]
    lead = x.shape[:-1]
    nb = -(-n // block)
    if nb * block != n:
        x = np.concatenate((x, np.zeros(lead + (nb * block - n,))), axis=-1)
    # All blocks of a case, of all its states, take one product.
    rows = x.reshape(lead[: t.ndim - 2] + (-1, block))
    if e is not None:
        carry = _recurrence((rows @ e).reshape(lead + (nb,)), levels, level + 1)
        x.reshape(lead + (nb, block))[..., 1:, 0] += carry[..., :-1]
    return (rows @ t).reshape(lead + (-1,))[..., :n]
