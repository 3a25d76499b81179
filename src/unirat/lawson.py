"""Lawson re-weighted minimax phase on fixed support nodes.

The support nodes are appended to the test set so accuracy can be enforced
there too.  Each step minimizes a weighted linearized error via the smallest
right singular vector of the real matrix Bhat (MODIFIED variant) or of the
complex [M | -S_F M] (ORIGINAL), both built and solved by ``loewner``.
Weights are multiplied by the current absolute errors and renormalized to
max 1 after every step.
"""

from dataclasses import dataclass, field

import numpy as np

from .barycentric import (CayleyApproximant, NonInterpolatoryApproximant, check_nodes,
                          is_count, node_quotient)
from .errors import InvalidInputError
from .loewner import (VARIANTS, NodeSet, expanded_coefficients, expanded_system,
                      modified_cauchy, phase_diagonals)


@dataclass(frozen=True)
class LawsonConfig:
    n_lawson: int
    variant: str = "modified"

    def __post_init__(self):
        if not is_count(self.n_lawson) or self.n_lawson < 1:
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
    x = check_nodes(test_nodes, "test nodes", least=0)
    y = check_nodes(support_nodes, "support nodes")
    if set(x.tolist()) & set(y.tolist()):
        raise InvalidInputError("support nodes are appended internally; "
                                "pass disjoint test nodes")
    nodes = NodeSet(test_nodes=np.concatenate([x, y]), support_nodes=y)
    xa, ph = nodes.test_nodes, phase_diagonals(nodes)
    mu = np.ones(xa.size)

    # C' has unit rows for the appended support nodes.  Each step builds its
    # system from sqrt(mu) C', as bhat and expanded_loewner do for a NodeSet
    # weighted by mu; mu may reach 0, so the fit's NodeSet, whose weights must
    # be positive, keeps unit weights.
    Cp = modified_cauchy(nodes)

    trace = LawsonTrace()
    for step in range(1, config.n_lawson + 1):
        A = expanded_system(np.sqrt(mu)[:, None] * Cp, ph, config.variant)
        alpha, beta, res = expanded_coefficients(A, config.variant)
        r = node_quotient(Cp, alpha, beta)

        eps = ph.S_F - r
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
