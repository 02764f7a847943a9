"""Finite-volume solver for a viscous Burgers equation with an exponential
relaxation memory term, designed to preserve the large-time diffusive-wave
behavior, plus the verification harness for its conservation, contraction
and convergence properties."""

from .grid import Grid, GridFunction, make_grid
from .kernel import KernelQuadrature
from .profile import AsymptoticProfile
from .scheme import CorrectorMode, FluxKind, PhysicalParams, RunRecord, SchemeConfig

__version__ = "0.1.0"

__all__ = [
    "FluxKind",
    "Grid",
    "GridFunction",
    "make_grid",
    "KernelQuadrature",
    "AsymptoticProfile",
    "CorrectorMode",
    "PhysicalParams",
    "RunRecord",
    "SchemeConfig",
    "__version__",
]
