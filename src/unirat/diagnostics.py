"""Grid metrics: approximation error, unitarity deviation, pole scan."""

from dataclasses import dataclass

import numpy as np

from .barycentric import cayley_phase_residual
from .errors import InvalidInputError, PoleEvaluationError
from .linalg import EPS


def _grid(grid):
    g = np.atleast_1d(np.asarray(grid, dtype=float))
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
    """Minimum |denominator| over the grid (|xi| for the Cayley form), with
    its location; flags values below 1e3 * eps * ||coefficients||_2."""
    g = _grid(grid)
    d = np.abs(approx.denominator(g))
    i = int(np.argmin(d))
    if hasattr(approx, "coefficients"):
        scale = float(np.linalg.norm(approx.coefficients))
    else:
        scale = float(np.sqrt(np.linalg.norm(approx.alpha) ** 2
                              + np.linalg.norm(approx.beta) ** 2))
    threshold = 1e3 * EPS * scale
    return PoleScanReport(
        min_denominator=float(d[i]),
        location=float(g[i]),
        threshold=threshold,
        flagged=bool(d[i] < threshold),
    )


def cayley_residual(w, support):
    """max_j |exp(i y_j) w_j - conj(w_j)|."""
    return cayley_phase_residual(w, support)
