"""One-sided exponential relaxation kernel and its truncated quadrature.

The memory term convolves the solution with ``K(z) = exp(-z/theta)/theta``
for ``z > 0``.  On a mesh of size ``dx`` the convolution is replaced by a
truncated sum with weights equal to the exact integral of the kernel over
each cell,

    w_m = exp(-(m-1)*dx/theta) * (1 - exp(-dx/theta)),   m = 1..N.

Both factors are at most 1, so the weights stay finite however small theta
is; the equal form ``exp(-m*dx/theta) * (exp(dx/theta) - 1)`` overflows once
dx/theta exceeds about 709.

Three derived factors measure how much of the kernel's zeroth, first and
second moments the truncated sum retains:

    moment0 = sum w_m                      -> 1
    moment1 = (dx/theta) * sum m w_m       -> 1
    moment2 = (dx^2/(2 theta^2)) * sum m(m-1) w_m  -> 1

as dx -> 0 with N*dx/theta -> infinity.  moment0 and moment1 multiply the
local terms of the semi-discrete scheme; moment2 sets the effective
viscosity of the large-time profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TAIL_TOL",
    "KernelQuadrature",
    "kernel_eval",
    "build",
    "closed_form_moment0",
    "closed_form_moment1",
    "choose_n",
]

# Default bound on the kernel mass neglected by the truncation.
DEFAULT_TAIL_TOL = 1e-8


def kernel_eval(z, theta: float):
    """Evaluate the relaxation kernel: ``exp(-z/theta)/theta`` for z > 0, else 0."""
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    z_arr = np.asarray(z, dtype=np.float64)
    out = np.where(z_arr > 0.0, np.exp(-z_arr / theta) / theta, 0.0)
    if np.isscalar(z) or z_arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class KernelQuadrature:
    """Truncated cell-integral weights of the kernel plus moment factors.

    Immutable after construction; safe to share across threads.
    ``stability_sum`` holds ``sum (m+1) w_m``, the combination entering the
    explicit time-step bound.
    """

    dx: float
    theta: float
    n_terms: int
    weights: np.ndarray
    moment0: float
    moment1: float
    moment2: float
    stability_sum: float

    def __post_init__(self) -> None:
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {self.n_terms}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.n_terms,):
            raise ValueError("weights length must equal n_terms")
        if np.any(w < 0.0) or np.any(np.diff(w) > 0.0):
            raise ValueError("weights must be nonnegative and nonincreasing")
        if not (0.0 < self.moment0 <= 1.0):
            raise ValueError(f"moment0 must lie in (0, 1], got {self.moment0}")
        for name in ("moment1", "moment2", "stability_sum"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def build(dx: float, theta: float, n_terms: int) -> KernelQuadrature:
    """Compute the N leading weights and moment factors for mesh size dx.

    Each weight is evaluated from its own closed form (no recurrence), so the
    far tail cannot accumulate drift; weights that underflow to zero are kept.
    """
    if not dx > 0.0:
        raise ValueError(f"dx must be positive, got {dx}")
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    h = dx / theta
    m = np.arange(1, n_terms + 1, dtype=np.float64)
    weights = np.exp(-(m - 1.0) * h) * -math.expm1(-h)
    # The exact sum is 1 - exp(-N h) < 1; representation error of the
    # individual weights can push the accumulated value one ulp past 1.
    moment0 = min(math.fsum(weights.tolist()), 1.0)
    moment1 = (dx / theta) * math.fsum((m * weights).tolist())
    moment2 = (dx * dx / (2.0 * theta * theta)) * math.fsum(
        (m * (m - 1.0) * weights).tolist()
    )
    stability_sum = math.fsum(((m + 1.0) * weights).tolist())
    return KernelQuadrature(
        dx=dx,
        theta=theta,
        n_terms=n_terms,
        weights=weights,
        moment0=moment0,
        moment1=moment1,
        moment2=moment2,
        stability_sum=stability_sum,
    )


def closed_form_moment0(dx: float, theta: float, n_terms: int) -> float:
    """Geometric-sum value of moment0: ``1 - exp(-N*dx/theta)``."""
    return -math.expm1(-n_terms * dx / theta)


def closed_form_moment1(dx: float, theta: float, n_terms: int) -> float:
    """Closed form of moment1.

    With h = dx/theta and q = exp(-h),

        moment1 = h * (1 - (N+1) q^N + N q^(N+1)) / (1 - q)
                = h * ( (1 - q^N)/(1 - q) - N q^N ),

    algebraically equal to h (e^h - 1) * sum_{m<=N} m q^m.  The second
    grouping avoids the catastrophic cancellation of the first when N*h is
    small.
    """
    h = dx / theta
    q_n = math.exp(-n_terms * h)
    return h * ((-math.expm1(-n_terms * h)) / (-math.expm1(-h)) - n_terms * q_n)


def choose_n(dx: float, theta: float, tail_tol: float) -> int:
    """Smallest N with ``exp(-N*dx/theta) <= tail_tol``.

    This bounds the neglected kernel mass: ``1 - moment0 <= tail_tol``.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if not dx > 0.0:
        raise ValueError(f"dx must be positive, got {dx}")
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    h = dx / theta
    n = max(1, math.ceil(-math.log(tail_tol) / h))
    # The ceiling of a rounded quotient can land one off in either direction
    # when -log(tail_tol)/h is an exact integer; fix up against the defining
    # inequality itself.
    while n > 1 and math.exp(-(n - 1) * h) <= tail_tol:
        n -= 1
    while math.exp(-n * h) > tail_tol:
        n += 1
    return n
