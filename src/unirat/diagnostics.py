"""Grid metrics (approximation error, unitarity deviation, pole scan) and
the coefficients' structure residual."""

from dataclasses import dataclass

import numpy as np

from .barycentric import coefficient_norm
from .errors import InvalidInputError, PoleEvaluationError
from .linalg import EPS, _phase, real_array


def _grid(grid):
    g = real_array(grid, "grid").ravel()
    if g.size == 0:
        raise InvalidInputError("grid must be nonempty")
    return g


def _values(approx, grid):
    """Evaluate on the grid; a pole yields inf at that point instead of raising."""
    try:
        return approx.eval(grid)
    except PoleEvaluationError:
        # only points with a zero denominator can raise; evaluating those one
        # at a time turns a pole into inf and lets any other error propagate
        zero = approx.denominator(grid) == 0.0
        out = np.empty(grid.size, dtype=complex)
        out[~zero] = approx.eval(grid[~zero])
        for i in np.nonzero(zero)[0]:
            try:
                out[i] = approx.eval(float(grid[i]))
            except PoleEvaluationError:
                out[i] = np.inf
        return out


def max_error(approx, grid):
    """max over the grid of |r(x) - exp(ix)|; poles count as +inf."""
    g = _grid(grid)
    vals = _values(approx, g)
    return float(np.max(np.abs(vals - np.exp(1j * g))))


def unitarity_deviation(approx, grid):
    """max over the grid of ||r(x)| - 1|."""
    g = _grid(grid)
    vals = _values(approx, g)
    return float(np.max(np.abs(np.abs(vals) - 1.0)))


@dataclass(frozen=True)
class PoleScanReport:
    min_denominator: float
    location: float
    threshold: float
    flagged: bool


def real_axis_pole_scan(approx, grid):
    """Minimum |denominator| over the grid, with its location; for a Cayley
    form conj(d)/d it is |d|: |xi| for ``CayleyApproximant``, |q| =
    |p(ix)| for Padé.  Flags values below 1e3 * eps times the joint 2-norm
    of the coefficient fields that ``approx.COEFFICIENTS`` names."""
    g = _grid(grid)
    d = np.abs(approx.denominator(g))
    i = int(np.argmin(d))
    scale = float(coefficient_norm([getattr(approx, f) for f in approx.COEFFICIENTS]))
    threshold = 1e3 * EPS * scale
    return PoleScanReport(
        min_denominator=float(d[i]),
        location=float(g[i]),
        threshold=threshold,
        flagged=bool(d[i] < threshold),
    )


def structure_residual(approx):
    """max_j |alpha_j - e^{i theta} conj(beta_j)| / ||alpha|| with theta =
    arg sum_j alpha_j beta_j, the phase that minimises the 2-norm of the
    difference: how far a form's coefficients miss alpha = e^{i theta}
    conj(beta), the identity that makes r unitary on the real axis.  The
    Cayley form meets it to rounding; for the other forms of a fit it is the
    perturbation of the minimising singular vector."""
    alpha, beta = approx.alpha, approx.beta
    delta = alpha - _phase(np.sum(alpha * beta, keepdims=True)) * np.conj(beta)
    with np.errstate(divide="ignore"):
        return float(np.max(np.abs(delta)) / np.linalg.norm(alpha))
