"""Self-similar diffusive-wave attractor of viscous Burgers dynamics.

The large-time limit of solutions with integrable initial data of mass M is
the solution of ``u_t = u u_x + a u_xx`` started from ``M * delta_0``.  For
viscosity a = 2 it has the closed form

    u(t, x) = 2 sqrt(2) t^(-1/2) exp(-x^2/(8t))
              / ( C + integral_{-inf}^{x/sqrt(2t)} exp(-s^2/4) ds ),

where C normalizes the mass.  Writing u = 4 d/dx log(C + ...) shows the mass
equals ``4 log(1 + 2 sqrt(pi)/C)``, so

    C(M) = 2 sqrt(pi) / (exp(M/4) - 1),

with C < -2 sqrt(pi) for M < 0 (the profile is then strictly negative).
Dividing numerator and denominator by ``exp(-s^2)``, s = x/(2 sqrt(2t)),
gives the form that is evaluated: with
``A = C + 2 sqrt(pi) = 2 sqrt(pi) / (1 - exp(-M/4))``,

    u = 2 sqrt(2) t^(-1/2) / (C e^{s^2} + sqrt(pi) erfcx(-s))    for s < 0,
    u = 2 sqrt(2) t^(-1/2) / (A e^{s^2} - sqrt(pi) erfcx(s))     for s >= 0,

with erfcx the scaled complementary error function.  Both terms of each
denominator have the sign of M, or the second is at most half the first, so
neither cancels; ``C e^{s^2}`` and ``A e^{s^2}`` are formed from ``log|C|``
and ``log|A|``, so nothing overflows for any finite mass.

erfcx needs NumPy and the standard library only: for r <= 25 it is
``exp(r^2) * math.erfc(r)`` with r^2 split into an exact float32 square and
a small remainder, beyond 25 its seven-term asymptotic series (see
``_erfcx``), within 5.2e-16 relative of 40-digit references.

General viscosity follows from the exact rescaling
``w(t, x) = (a/2) u((a/2) t, x)``, which maps viscosity 2 to viscosity a and
mass 2M/a to mass M.

For the semi-discrete solver the matching effective viscosity is
``nu + c * moment2`` (the truncated second-moment factor of the kernel
quadrature); ``nu + c`` is the continuum-limit value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction

__all__ = [
    "AsymptoticProfile",
    "c_constant",
    "eval_viscosity2",
    "eval",
    "sample_on_grid",
    "effective_viscosity",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_SQRT2 = 2.0 * math.sqrt(2.0)
_LOG_TWO_SQRT_PI = math.log(2.0 * _SQRT_PI)


# Below this argument erfcx is formed from the standard library's erfc (which
# underflows near r = 26.5); above it, from its asymptotic series.
_ERFCX_SERIES_FROM = 25.0
# (-1)^k (2k-1)!! for k = 0..6: the series in z = 1/(2 r^2), whose first
# omitted term is below 3e-17 relative at r = 25.
_ERFCX_SERIES = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _erfcx(r):
    """Scaled complementary error function ``exp(r^2) erfc(r)`` for r >= 0.

    For r <= 25 it is ``exp(rh^2) exp(rl (2 rh + rl)) erfc(r)`` with rh the
    float32 rounding of r (so rh^2 is exact) and rl = r - rh: a plain
    ``exp(r*r)`` would carry the r^2 eps rounding error of its argument.
    For r > 25 it is the asymptotic series
    ``(1/(r sqrt(pi))) sum_k (-1)^k (2k-1)!!/(2 r^2)^k``, k = 0..6, formed so
    that no step overflows up to the largest float.  Against 40-digit
    mpmath on 2,009 points from 0 to the largest float (subnormals, both
    sides of 25), the largest relative error was 5.2e-16, at the largest
    float where the value is subnormal (SciPy's erfcx: 8.2e-16).
    """
    r = np.asarray(r, dtype=np.float64)
    flat = r.reshape(-1)
    out = np.empty_like(flat)
    near = flat <= _ERFCX_SERIES_FROM
    rn = flat[near]
    rh = rn.astype(np.float32).astype(np.float64)
    rl = rn - rh
    out[near] = (
        np.exp(rh * rh) * np.exp(rl * (2.0 * rh + rl))
        * _ERFC(rn).astype(np.float64)
    )
    far = ~near
    rf = flat[far]
    z = (0.5 / rf) / rf
    series = np.full_like(rf, _ERFCX_SERIES[-1])
    for coeff in _ERFCX_SERIES[-2::-1]:
        series = series * z + coeff
    out[far] = series * ((1.0 / _SQRT_PI) / rf)
    return out.reshape(r.shape)


def _log_abs_expm1(y: float) -> float:
    """``log|exp(y) - 1|``, finite for every finite nonzero ``y``."""
    if y > 0.0:
        return y + math.log(-math.expm1(-y))
    return math.log(-math.expm1(y))


def c_constant(m_prime: float) -> float:
    """Normalizing constant of the viscosity-2 profile of mass ``m_prime``.

    ``c_constant(m') = 2 sqrt(pi) / (exp(m'/4) - 1)``; the unique constant
    making the profile integrate to ``m'``.  Raises for zero mass, where the
    profile degenerates to the zero function.
    """
    if m_prime == 0.0:
        raise ValueError(
            "zero-mass profile: no normalizing constant, the profile is 0"
        )
    if not math.isfinite(m_prime):
        raise ValueError(f"mass must be finite, got {m_prime}")
    q = m_prime / 4.0
    if q > 0.0:
        # The same value as 2 sqrt(pi) e^{-q} / (1 - e^{-q}), finite for any q.
        return 2.0 * _SQRT_PI * math.exp(-q) / -math.expm1(-q)
    return 2.0 * _SQRT_PI / math.expm1(q)


def eval_viscosity2(t: float, x, m_prime: float):
    """Viscosity-2 diffusive wave of mass ``m_prime`` at time t > 0.

    Evaluated in the erfcx form of the module docstring, which is finite and
    raises no floating-point warning for any finite mass.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    x_arr = np.asarray(x, dtype=np.float64)
    if m_prime == 0.0:
        out = np.zeros_like(x_arr)
        return float(out) if x_arr.ndim == 0 else out
    if not math.isfinite(m_prime):
        raise ValueError(f"mass must be finite, got {m_prime}")
    q = m_prime / 4.0
    log_c = _LOG_TWO_SQRT_PI - _log_abs_expm1(q)  # log|C|
    log_a = _LOG_TWO_SQRT_PI - _log_abs_expm1(-q)  # log|A|, A = C + 2 sqrt(pi)
    s = x_arr / (2.0 * math.sqrt(2.0 * t))
    r = np.abs(s)
    # Both branches are one expression in |s| whose constants each cell picks
    # by its sign; exp(log + s^2) past the float range is inf, a wave of 0.
    neg = s < 0.0
    with np.errstate(over="ignore"):
        denom = math.copysign(1.0, q) * np.exp(
            np.where(neg, log_c, log_a) + r * r
        ) + np.where(neg, _SQRT_PI, -_SQRT_PI) * _erfcx(r)
    out = (_TWO_SQRT2 / math.sqrt(t)) / denom
    return float(out) if x_arr.ndim == 0 else out


@dataclass(frozen=True)
class AsymptoticProfile:
    """Diffusive wave of mass M for viscosity a: ``(a/2) u_2((a/2) t, x)``.

    ``c_m`` is the normalizing constant of the underlying viscosity-2 wave of
    mass 2M/a (NaN when M = 0, where the profile is identically zero).
    """

    mass: float
    viscosity: float
    c_m: float = math.nan

    def __post_init__(self) -> None:
        if not math.isfinite(self.mass):
            raise ValueError(f"mass must be finite, got {self.mass}")
        if not self.viscosity > 0.0:
            raise ValueError(f"viscosity must be positive, got {self.viscosity}")
        if self.mass == 0.0:
            object.__setattr__(self, "c_m", math.nan)
        else:
            object.__setattr__(
                self, "c_m", c_constant(2.0 * self.mass / self.viscosity)
            )


def eval(profile: AsymptoticProfile, t: float, x):
    """Evaluate the profile at time t > 0 and position(s) x."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if profile.mass == 0.0:
        x_arr = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x_arr)
        return float(out) if x_arr.ndim == 0 else out
    half_a = profile.viscosity / 2.0
    return half_a * eval_viscosity2(
        half_a * t, x, 2.0 * profile.mass / profile.viscosity
    )


def sample_on_grid(profile: AsymptoticProfile, grid: Grid, t: float) -> GridFunction:
    """Point values of the profile at cell centers.

    Midpoint sampling, not cell averaging: the comparison norms against
    piecewise-constant solver output converge identically as dx -> 0.
    """
    return GridFunction(grid, eval(profile, t, grid.cell_centers))


def effective_viscosity(nu: float, c: float, moment2: float | None = None) -> float:
    """Viscosity of the profile the scheme converges to.

    ``nu + c * moment2`` matches the semi-discrete dynamics at fixed dx;
    passing ``moment2=None`` gives the continuum value ``nu + c``.
    """
    if moment2 is None:
        return nu + c
    return nu + c * moment2
