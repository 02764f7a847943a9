"""Two-point numerical fluxes for the convective term.

The equation's nonlinearity enters as ``+ (u^2/2)_x``, discretized as
``(g_{j+1/2} - g_{j-1/2})/dx`` with a two-point flux ``g`` consistent with
``u^2/2``.  Engquist-Osher is the monotone flux the solver is built around;
modified Lax-Friedrichs is the deliberately over-diffusive comparator whose
artificial viscosity ``dx^2/(4 dt)`` wrecks the large-time behavior when the
physical coefficients are small.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["FluxKind", "eo_flux", "mlf_flux"]


class FluxKind(Enum):
    ENGQUIST_OSHER = "eo"
    MODIFIED_LAX_FRIEDRICHS = "mlf"


def eo_flux(a, b):
    """Engquist-Osher flux: ``a(a-|a|)/4 + b(b+|b|)/4``.

    Nonincreasing in ``a`` (the left state), nondecreasing in ``b``.
    """
    return (a * (a - np.abs(a))) * 0.25 + (b * (b + np.abs(b))) * 0.25


def mlf_flux(a, b, dx: float, dt_ref: float):
    """Modified Lax-Friedrichs flux: central average plus ``dx/(4 dt)`` dissipation.

    The dissipation term amounts to a discrete viscosity of size
    ``dx^2/(4 dt_ref)`` added to the equation.
    """
    if not dx > 0.0:
        raise ValueError(f"dx must be positive, got {dx}")
    if not dt_ref > 0.0:
        raise ValueError(f"dt_ref must be positive, got {dt_ref}")
    return (a * a + b * b) * 0.25 + (dx / (4.0 * dt_ref)) * (b - a)
