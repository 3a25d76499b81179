"""Greedy AAA outer loop for approximating exp(ix) on a discrete node set.

Two variants are provided.  The MODIFIED variant works with the real
re-scaled Loewner matrix, computes coefficients w = i K Vhat e_m and returns
a unitary Cayley-form approximant.  The ORIGINAL variant takes the smallest
right singular vector of the complex Loewner matrix and returns the plain
interpolatory form, reproducing the floating-point behavior of the
unmodified method.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .barycentric import (
    BarycentricInterpolant,
    CayleyApproximant,
    check_nodes,
    node_quotient,
)
from .errors import InvalidInputError
from .lawson import LawsonConfig, lawson_fit
from .linalg import EPS, svd_complex, svd_real
from .loewner import VARIANTS, phase_entries


@dataclass(frozen=True)
class AaaConfig:
    m_max: int
    tol: float = 1e-13
    variant: str = "modified"
    n_lawson: int = 0

    def __post_init__(self):
        if not isinstance(self.m_max, Integral) or self.m_max < 1:
            raise InvalidInputError("m_max must be an integer of at least 1")
        if not self.tol >= 0:  # also rejects NaN
            raise InvalidInputError("tol must be nonnegative")
        if self.variant not in VARIANTS:
            raise InvalidInputError(f"variant must be one of {VARIANTS}")
        if not isinstance(self.n_lawson, Integral) or self.n_lawson < 0:
            raise InvalidInputError("n_lawson must be a nonnegative integer")


@dataclass
class AaaIteration:
    m: int
    node: float
    max_error: float
    sigma_min: float
    degenerate: bool


@dataclass
class AaaTrace:
    iterations: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    lawson: object = None


def greedy_select(values, approx_values):
    """Index of the largest |values - approx_values|; first index on ties."""
    values = np.atleast_1d(np.asarray(values))
    approx_values = np.atleast_1d(np.asarray(approx_values))
    if values.size == 0:
        raise InvalidInputError("cannot select from empty vectors")
    if values.shape != approx_values.shape:
        raise InvalidInputError("vectors must have equal length")
    return int(np.argmax(np.abs(values - approx_values)))


def aaa_fit(test_nodes, config):
    """Fit a rational approximant to exp(ix) on the given test nodes.

    Returns ``(approximant, trace)``.  If ``config.n_lawson > 0`` the support
    nodes are handed to the minimax iteration and its result is returned,
    with the Lawson trace attached to ``trace.lawson``.
    """
    x = check_nodes(test_nodes, "test nodes", least=2)
    if config.m_max >= x.size:
        raise InvalidInputError("m_max must be smaller than the number of test nodes")

    F = np.exp(1j * x)
    R = phase_entries(x)
    r = np.full(x.size, F.mean(), dtype=complex)

    y = []  # support nodes, in selection order
    fv = K = np.empty(0, dtype=complex)  # exp(i y_j) and the K diagonal
    C = np.empty((x.size, 0))
    trace = AaaTrace()

    for m in range(1, config.m_max + 1):
        j = greedy_select(F, r)
        y.append(float(x[j]))
        fv, K = np.append(fv, F[j]), np.append(K, R[j])
        keep = np.arange(x.size) != j
        x, F, R, C = x[keep], F[keep], R[keep], C[keep]

        C = np.hstack([C, (1.0 / (x - y[-1]))[:, None]])

        if config.variant == "modified":
            lhat = 2.0 * np.imag(R[:, None] * C * np.conj(K)[None, :])
            res = svd_real(lhat)
            w = 1j * K * res.right_vectors[:, -1]
            alpha = np.conj(w)
        else:
            L = (F[:, None] - fv[None, :]) * C
            res = svd_complex(L)
            w = res.right_vectors[:, -1]
            alpha = fv * w
        r = node_quotient(C, alpha, w)

        sig = res.singular_values
        degenerate = m >= 2 and (sig[-2] - sig[-1]) <= 8.0 * EPS * sig[0]
        max_error = float(np.max(np.abs(F - r)))
        trace.iterations.append(
            AaaIteration(m=m, node=y[-1], max_error=max_error,
                         sigma_min=float(sig[-1]), degenerate=bool(degenerate))
        )
        if max_error <= config.tol:
            trace.converged = True
            trace.stop_reason = "tol"
            break
    else:
        trace.stop_reason = "m_max"

    y = np.asarray(y)
    if config.n_lawson > 0:
        approx, trace.lawson = lawson_fit(
            x, y, LawsonConfig(n_lawson=config.n_lawson, variant=config.variant))
        return approx, trace

    if config.variant == "modified":
        return CayleyApproximant(support=y, coefficients=w), trace
    return BarycentricInterpolant(support=y, coefficients=w), trace
