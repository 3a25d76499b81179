"""Lawson re-weighted minimax phase on fixed support nodes.

The support nodes are appended to the test set so accuracy can be enforced
there too.  Each step minimizes a weighted linearized error via the smallest
right singular vector of the real matrix Bhat (MODIFIED variant) or of the
complex [M | -S_F M] (ORIGINAL), both built and solved by ``loewner``,
with no start vector.  Weights are multiplied by the current absolute errors
and renormalized to max 1 after every step.  A fit forms each step's
row-weighted block and system in the same two Fortran-ordered buffers, and
takes its node values from one complex copy of the modified Cauchy block, by
one product in the modified variant.  A modified fit with a tall system and
more than one step factors its first system once, B0 = Q0 R0
(``linalg.WeightedQR``): step 1 reads R0, and each later step, whose system
is B0 with its rows weighted, is solved from Q0 and R0 where the route's
certificate holds, and by a QR of its own otherwise.  The original variant
factors each step's system on its own: on its complex systems the complex
Q0 costs about what the route saves, and the route makes the fit
measurably less unitary.
"""

from dataclasses import dataclass, field

import numpy as np

from .barycentric import (CayleyApproximant, NonInterpolatoryApproximant, check_nodes,
                          has_duplicates, is_count, node_quotient)
from .errors import InvalidInputError, NumericalFailureError
from .linalg import SmallestVector, WeightedQR, number_array
from .loewner import (VARIANTS, NodeSet, check_differences, check_test_count,
                      expanded_coefficients, expanded_system, modified_cauchy, phase_diagonals)


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
class FitStep:
    """One AAA iteration or Lawson step: the support node it added (AAA) or
    its worst test node (Lawson), the max error at the test nodes, and
    ``solve``, the ``linalg.SmallestVector`` of the step's system, whose
    ``sigma_min`` and ``degenerate`` the step reads.

    ``loewner`` solves every step by one call, ``smallest_right_vector``.
    One Hermitian eigensolve of (R^H R)^{-1} gives the record of every step
    whose tall system it certifies, by a lower bound on sigma_{m-1} that
    R's own computed singular values give net of their rounding
    (``linalg.gap_bound``), and the record reads ``sweeps == 0``.
    R is a QR's of the step's system, or, on a modified Lawson step after
    the first, the route's triangle from the fit's one QR
    (``linalg.WeightedQR``), whose record also reads ``route``.  A wide
    step's record comes from the complete QR of its system's transpose
    alone, with the kernel's vector where the system has full row rank, and
    reads ``sweeps == 0`` too.  Every other step's record is the fully
    converged Jacobi kernel's, that of ``svd_real`` or ``svd_complex`` on
    the step's system, and reads ``sweeps > 0``; on the four figure fits no
    step's does.  A step's number is its position in its trace, plus
    one."""

    node: float
    max_error: float
    solve: SmallestVector

    @property
    def sigma_min(self):
        return self.solve.sigma_min

    @property
    def degenerate(self):
        return self.solve.degenerate


@dataclass
class LawsonTrace:
    steps: list = field(default_factory=list)
    stop_reason: str = ""  # "exact" once every weighted error is 0, else "n_lawson"


def lawson_weight_update(weights, errors):
    """mu_k <- mu_k |eps_k|, then divide by the max entry; the errors may be
    given as their moduli.

    Returns None when every product is zero (exact fit; the caller stops).
    The weights must be finite and nonnegative; a weight of 0 is allowed.
    """
    weights = np.atleast_1d(number_array(weights, "weights"))
    # real errors, such as their moduli, stay real
    errors = np.atleast_1d(number_array(errors, "errors",
                                        complex if np.iscomplexobj(errors) else float))
    if weights.shape != errors.shape:
        raise InvalidInputError("weights and errors must have equal length")
    if errors.size == 0 or not np.all(np.isfinite(errors)):
        raise InvalidInputError("errors must be a nonempty vector of finite values")
    if not np.all((weights >= 0.0) & (weights < np.inf)):
        raise InvalidInputError("weights must be finite and nonnegative")
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
    original variant.  Fewer than m - 1 test nodes for m support nodes are
    rejected (``check_test_count``), as are nodes, test and support
    together, two of which differ by an amount that is not finite or whose
    reciprocal is not (``check_differences``).
    """
    x = check_nodes(test_nodes, "test nodes", least=0)
    y = check_nodes(support_nodes, "support nodes")
    check_test_count(x.size, y.size)
    xa = np.concatenate([x, y])
    # each set is distinct, so two equal nodes of both are in both
    if has_duplicates(xa):
        raise InvalidInputError("support nodes are appended internally; "
                                "pass disjoint test nodes")
    nodes = NodeSet(test_nodes=xa, support_nodes=y)
    check_differences(nodes.test_nodes)
    ph = phase_diagonals(nodes)
    mu = np.ones(xa.size)

    # C' has unit rows for the appended support nodes.  Each step builds its
    # system from sqrt(mu) C', as bhat and expanded_loewner do for a NodeSet
    # weighted by mu; mu may reach 0, so the fit's NodeSet, whose weights must
    # be positive, keeps unit weights.  The steps refill one buffer for
    # sqrt(mu) C' and one for the system, which the first step's
    # expanded_system allocates, all three in the Fortran order of the
    # system, so that each elementwise product runs down whole columns, with
    # the bits of any order.  The node values read one complex copy of C',
    # the operand that node_quotient's products would otherwise cast C' to,
    # in C order, since a product's bits depend on its operands' layout.
    Cp = modified_cauchy(nodes)
    Cp_complex = Cp.astype(complex)
    Cp = np.asfortranarray(Cp)
    M, A = np.empty_like(Cp), None
    # a modified fit with a step 2 factors its tall first system once,
    # B0 = Q0 R0 (linalg.WeightedQR): step 1 reads R0, and each later step
    # tries the route from Q0 and R0 before a QR of its own
    route = config.variant == "modified" and config.n_lawson > 1 and xa.size >= 2 * y.size
    qr = None

    trace = LawsonTrace()
    for step in range(1, config.n_lawson + 1):
        np.multiply(np.sqrt(mu)[:, None], Cp, out=M)
        A = expanded_system(M, ph, config.variant, out=A)
        if route and step == 1:
            qr = WeightedQR(A)
        alpha, beta, solve = expanded_coefficients(A, config.variant, qr,
                                                   None if step == 1 else mu)
        r = node_quotient(Cp_complex, alpha, beta)

        eps = ph.S_F - r
        err = np.abs(eps)
        worst = int(np.argmax(err))
        max_error = float(err[worst])
        # the largest |eps| is finite where every eps is, unless a finite eps
        # overflows its modulus, so only a non-finite one needs the search
        if not max_error < np.inf:
            bad = np.flatnonzero(~np.isfinite(eps))
            if bad.size:
                raise NumericalFailureError(
                    f"Lawson step {step}: the error at test node {float(xa[bad[0]])!r} is "
                    "not finite, a pole of the step's approximant", float(err[bad[0]]),
                    trace.steps)
        trace.steps.append(
            FitStep(node=float(xa[worst]), max_error=max_error, solve=solve))
        mu_next = lawson_weight_update(mu, err)
        if mu_next is None:
            trace.stop_reason = "exact"
            break
        mu = mu_next
    else:
        trace.stop_reason = "n_lawson"

    if config.variant == "modified":
        return CayleyApproximant(support=y, coefficients=beta), trace
    return NonInterpolatoryApproximant(support=y, alpha=alpha, beta=beta), trace
