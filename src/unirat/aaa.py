"""Greedy AAA outer loop for approximating exp(ix) on a discrete node set.

Two variants are provided.  The MODIFIED variant works with the real
re-scaled Loewner matrix, computes coefficients w = i K Vhat e_m and returns
a unitary Cayley-form approximant.  The ORIGINAL variant takes the smallest
right singular vector of the complex Loewner matrix and returns the plain
interpolatory form, reproducing the floating-point behavior of the
unmodified method.

A fit allocates its system and its Cauchy block once, with one column per
iteration to come, and keeps its test nodes, exp(i x_k) and the R diagonal
in buffers of its own.  Each iteration drops its node from all five, by
moving the entries and rows below it up one place, writes its new column
into both blocks, and solves and evaluates the leading blocks in place, with
the bits of a system rebuilt from the iteration's whole Cauchy block.  Each
iteration's vector comes from one Hermitian eigensolve where that is
certified, and a wide one's from the QR of its system's transpose, so the
Jacobi kernel runs only on a tall iteration that is not certified.  The
modified variant's node values conj(C w) / (C w) take one product with the
Cauchy block.
"""

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .barycentric import (
    BarycentricInterpolant,
    CayleyApproximant,
    check_nodes,
    is_count,
    node_quotient,
)
from .errors import InvalidInputError, NumericalFailureError
from .lawson import FitStep, LawsonConfig, lawson_fit
from .linalg import number_array
from .loewner import (VARIANTS, PhaseDiagonals, check_differences, check_test_count,
                      interpolatory_coefficients, interpolatory_system, phase_entries)


@dataclass(frozen=True)
class AaaConfig:
    m_max: int
    tol: float = 1e-13
    variant: str = "modified"
    n_lawson: int = 0

    def __post_init__(self):
        if not is_count(self.m_max) or self.m_max < 1:
            raise InvalidInputError("m_max must be an integer of at least 1")
        # also rejects NaN and a bool, as is_count does for the counts
        if not (isinstance(self.tol, Real) and not isinstance(self.tol, bool) and self.tol >= 0):
            raise InvalidInputError("tol must be nonnegative")
        if self.variant not in VARIANTS:
            raise InvalidInputError(f"variant must be one of {VARIANTS}")
        if not is_count(self.n_lawson) or self.n_lawson < 0:
            raise InvalidInputError("n_lawson must be a nonnegative integer")


@dataclass
class AaaTrace:
    iterations: list = field(default_factory=list)
    stop_reason: str = ""  # "tol" once the max error reaches tol, else "m_max"
    lawson: object = None


def greedy_select(values, approx_values):
    """Index of the largest |values - approx_values|; first index on ties."""
    values = np.atleast_1d(number_array(values, "values", complex))
    approx_values = np.atleast_1d(number_array(approx_values, "approximant values", complex))
    if values.size == 0:
        raise InvalidInputError("cannot select from empty vectors")
    if values.shape != approx_values.shape:
        raise InvalidInputError("vectors must have equal length")
    return int(np.argmax(np.abs(values - approx_values)))


def aaa_fit(test_nodes, config):
    """Fit a rational approximant to exp(ix) on the given test nodes.

    Returns ``(approximant, trace)``.  If ``config.n_lawson > 0`` the support
    nodes are handed to the minimax iteration, and its result is returned,
    with the Lawson trace attached to ``trace.lawson``; an iteration that
    leaves too few test nodes for the Lawson steps raises InvalidInputError
    at once.  Test nodes two of which differ by an amount that is not finite
    or whose reciprocal is not are rejected (``check_differences``).
    """
    x = check_nodes(test_nodes, "test nodes", least=2)
    if config.m_max >= x.size:
        raise InvalidInputError("m_max must be smaller than the number of test nodes")
    check_differences(x)

    # the test nodes, exp(i x_k) and the R diagonal, in per-fit buffers whose
    # leading entries are the test nodes left; the caller's nodes are copied
    x, F, R = x.copy(), np.exp(1j * x), phase_entries(x)

    y = []  # support nodes, in selection order
    # iteration m works on the leading (test nodes left) x m blocks of two
    # buffers: the system, in the Fortran order that LAPACK's QR reads, and
    # the Cauchy block, complex and C-ordered, so that node_quotient's
    # products need no cast and keep the bits of the real block's; and on the
    # leading m entries of exp(i y_j) and of the K diagonal
    width = config.m_max
    shape = (x.size, width)
    A_buf = np.empty(shape, order="F", dtype=float if config.variant == "modified" else complex)
    C_buf = np.empty(shape, dtype=complex)
    fv_buf, K_buf = np.empty(config.m_max, dtype=complex), np.empty(config.m_max, dtype=complex)
    # C_buf's rows end to end: moving whole rows up is then one overlapping
    # 1-D copy, which NumPy makes in place, where the overlapping 2-D slices
    # of their leading columns would be copied through a temporary
    C_flat = C_buf.reshape(-1)
    trace = AaaTrace()

    # the first node is greedy_select's for the constant approximant F.mean()
    j = int(np.argmax(np.abs(F - F.mean())))
    for m in range(1, config.m_max + 1):
        y.append(float(x[j]))
        fv_buf[m - 1], K_buf[m - 1] = F[j], R[j]
        k = x.size - m
        # the test nodes left only shrink as m grows, so a count too small for
        # the Lawson steps is final
        if config.n_lawson > 0:
            check_test_count(k, m)
        # node j leaves the test nodes and its row both blocks: the entries
        # and rows below it move up one place
        for buf in (x, F, R):
            buf[j:k] = buf[j + 1:k + 1]
        A_buf[j:k, :m - 1] = A_buf[j + 1:k + 1, :m - 1]
        C_flat[j * width:k * width] = C_flat[(j + 1) * width:(k + 1) * width]
        A, C = A_buf[:k, :m], C_buf[:k, :m]

        c = (1.0 / (x[:k] - y[-1]))[:, None]
        C[:, -1:] = c
        ph = PhaseDiagonals(K=K_buf[:m], R=R[:k], S_f=fv_buf[:m], S_F=F[:k])
        # the system is elementwise in C, so the new column's entries alone
        # extend it, with the bits of a full rebuild
        A[:, -1:] = interpolatory_system(c, ph, config.variant)
        alpha, w, solve = interpolatory_coefficients(A, ph, config.variant)
        r = node_quotient(C, alpha, w)

        # one |F - r| gives the max error and, by greedy_select's rule, the
        # next node
        err = np.abs(F[:k] - r)
        j = int(np.argmax(err))
        max_error = float(err[j])
        trace.iterations.append(
            FitStep(node=y[-1], max_error=max_error, solve=solve))
        if max_error <= config.tol:
            trace.stop_reason = "tol"
            break
    else:
        trace.stop_reason = "m_max"

    y = np.asarray(y)
    if config.n_lawson > 0:
        try:
            approx, trace.lawson = lawson_fit(
                x[:k], y, LawsonConfig(n_lawson=config.n_lawson, variant=config.variant))
        except NumericalFailureError as exc:
            # the steps run: the greedy iterations, then the Lawson steps
            exc.steps = trace.iterations + exc.steps
            raise
        return approx, trace

    if config.variant == "modified":
        return CayleyApproximant(support=y, coefficients=w), trace
    return BarycentricInterpolant(support=y, coefficients=w), trace
