"""Lawson re-weighted minimax phase on fixed support nodes.

The support nodes are appended to the test set so accuracy can be enforced
there too.  Each step minimizes a weighted linearized error via the smallest
right singular vector: the MODIFIED variant uses the real matrix Bhat and
reconstructs beta_j = (g_j - i g_{j+m})/sqrt(2), the ORIGINAL variant uses a
complex SVD of [M | -S_F M].  Weights are multiplied by the current absolute
errors and renormalized to max 1 after every step.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .barycentric import CayleyApproximant, NonInterpolatoryApproximant, node_quotient
from .errors import InvalidInputError
from .linalg import svd_complex, svd_real
from .loewner import SQRT2, VARIANTS, NodeSet, bhat, modified_cauchy


@dataclass(frozen=True)
class LawsonConfig:
    n_lawson: int
    variant: str = "modified"

    def __post_init__(self):
        if not isinstance(self.n_lawson, Integral) or self.n_lawson < 1:
            raise InvalidInputError("n_lawson must be an integer of at least 1")
        if self.variant not in VARIANTS:
            raise InvalidInputError(f"variant must be one of {VARIANTS}")


@dataclass
class LawsonStep:
    step: int
    max_error: float
    worst_node: float
    sigma_min: float


@dataclass
class LawsonTrace:
    steps: list = field(default_factory=list)
    exact_fit: bool = False


def lawson_weight_update(weights, errors):
    """mu_k <- mu_k |eps_k|, then divide by the max entry.

    Returns None when every product is zero (exact fit; the caller stops).
    """
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    errors = np.atleast_1d(np.asarray(errors))
    if weights.shape != errors.shape:
        raise InvalidInputError("weights and errors must have equal length")
    mu = weights * np.abs(errors)
    top = mu.max()
    if top == 0.0:
        return None
    return mu / top


def lawson_fit(test_nodes, support_nodes, config):
    """Run ``config.n_lawson`` re-weighted least-squares steps.

    Returns ``(approximant, trace)``: a ``CayleyApproximant`` built from the
    beta coefficients for the modified variant, or a
    ``NonInterpolatoryApproximant`` carrying both alpha and beta for the
    original variant.
    """
    x = np.atleast_1d(np.asarray(test_nodes, dtype=float))
    y = np.atleast_1d(np.asarray(support_nodes, dtype=float))
    if set(x.tolist()) & set(y.tolist()):
        raise InvalidInputError("support nodes are appended internally; "
                                "pass disjoint test nodes")
    nodes = NodeSet(test_nodes=np.concatenate([x, y]), support_nodes=y)
    xa, m = nodes.test_nodes, nodes.m
    F = np.exp(1j * xa)
    mu = np.ones(xa.size)

    # C' has unit rows for the appended support nodes; Bhat = [Re(R) C' |
    # -Im(R) C'].  Each step scales their rows by sqrt(mu), which may reach
    # 0, so NodeSet, whose weights must be positive, keeps unit weights.
    Cp = modified_cauchy(nodes)
    A = bhat(nodes) if config.variant == "modified" else None

    trace = LawsonTrace()
    for step in range(1, config.n_lawson + 1):
        smu = np.sqrt(mu)[:, None]
        if config.variant == "modified":
            res = svd_real(smu * A)
            g = res.right_vectors[:, -1]
            beta = (g[:m] - 1j * g[m:]) / SQRT2
            alpha = np.conj(beta)
        else:
            M = smu * Cp
            res = svd_complex(np.hstack([M, -F[:, None] * M]))
            g = res.right_vectors[:, -1]
            alpha, beta = g[:m], g[m:]
        r = node_quotient(Cp, alpha, beta)

        eps = F - r
        worst = int(np.argmax(np.abs(eps)))
        trace.steps.append(
            LawsonStep(step=step, max_error=float(np.abs(eps[worst])),
                       worst_node=float(xa[worst]),
                       sigma_min=float(res.singular_values[-1]))
        )
        mu_next = lawson_weight_update(mu, eps)
        if mu_next is None:
            trace.exact_fit = True
            break
        mu = mu_next

    if config.variant == "modified":
        return CayleyApproximant(support=y, coefficients=beta), trace
    return NonInterpolatoryApproximant(support=y, alpha=alpha, beta=beta), trace
