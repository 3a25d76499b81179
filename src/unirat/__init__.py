"""Unitary barycentric rational approximation of exp(ix)."""

from .aaa import AaaConfig, AaaTrace, aaa_fit, greedy_select
from .barycentric import (
    BarycentricInterpolant,
    CayleyApproximant,
    NonInterpolatoryApproximant,
)
from .diagnostics import (max_error, real_axis_pole_scan, structure_residual,
                          unitarity_deviation)
from .lawson import FitStep, LawsonConfig, LawsonTrace, lawson_fit, lawson_weight_update
from .linalg import SvdResult, svd_complex, svd_real
from .loewner import (
    NodeSet,
    PhaseDiagonals,
    bhat,
    cauchy,
    expanded_loewner,
    loewner,
    min_singular_coefficients,
    min_singular_pair,
    modified_cauchy,
    phase_diagonals,
    rescaled_loewner,
    weighted_loewner,
)
from .pade import PadeApproximant

__version__ = "0.1.0"

__all__ = [
    "AaaConfig", "AaaTrace", "aaa_fit", "greedy_select",
    "BarycentricInterpolant", "CayleyApproximant", "NonInterpolatoryApproximant",
    "max_error", "real_axis_pole_scan", "structure_residual", "unitarity_deviation",
    "FitStep", "LawsonConfig", "LawsonTrace", "lawson_fit", "lawson_weight_update",
    "SvdResult", "svd_complex", "svd_real",
    "NodeSet", "PhaseDiagonals", "bhat", "cauchy", "expanded_loewner", "loewner",
    "min_singular_coefficients", "min_singular_pair", "modified_cauchy",
    "phase_diagonals", "rescaled_loewner", "weighted_loewner",
    "PadeApproximant",
]
