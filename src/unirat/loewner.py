"""Loewner-type matrices for rational approximation of exp(ix).

All matrices hard-code f(x) = exp(ix).  Each fit's systems are built and
solved here, once, with the variant as the only switch: AAA's by
``interpolatory_system`` (Lhat = 2 Im(R C K*) or the Loewner matrix
S_F C - C S_f, over a Cauchy block C) and ``interpolatory_coefficients``,
Lawson's by ``expanded_system`` (Bhat = [Re(R) M | -Im(R) M] or [M | -S_F M],
over a row-weighted modified Cauchy block M) and ``expanded_coefficients``.
Both extractors return their coefficients with the step's
``linalg.SmallestVector``, from one call to ``linalg.smallest_right_vector``
on one QR of the system, or, for a modified Lawson step after the first, on
its fit's one ``linalg.WeightedQR`` where the route certifies it: one
Hermitian eigensolve's where that is certified, the Jacobi kernel's
otherwise.  The node-level functions
(``loewner``, ``rescaled_loewner``, ``bhat``, ...) wrap the two builders;
``min_singular_pair`` takes a modified Lawson step's (alpha, beta) from
``expanded_coefficients``, with its bits, and ``min_singular_coefficients``
applies AAA's w = i K v to the kernel's last right vector, whose full
spectrum it returns: the identity tests check them.
``check_differences`` rejects, for the fits, nodes two of which differ by
an amount whose value or reciprocal is not finite; the constructors and
``NodeSet`` accept such nodes.
"""

from dataclasses import dataclass

import numpy as np

from .barycentric import check_nodes
from .errors import InvalidInputError, NodeCollisionError
from .linalg import EPS, check_matrix, number_array, smallest_right_vector, svd_real

#: Fitting variants: "original" solves the complex systems, "modified" the
#: real re-scaled ones and returns the unitary Cayley form.
VARIANTS = ("original", "modified")


@dataclass(frozen=True)
class NodeSet:
    """Real test nodes x_k, real support nodes y_j, positive weights mu_k.

    Test/support overlap is validated by the individual constructors: the
    interpolatory matrices (cauchy, loewner, rescaled_loewner) require
    disjoint sets, the non-interpolatory ones (modified_cauchy and friends)
    permit exact collisions.
    """

    test_nodes: np.ndarray
    support_nodes: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        x = check_nodes(self.test_nodes, "test nodes")
        y = check_nodes(self.support_nodes, "support nodes")
        object.__setattr__(self, "test_nodes", x)
        object.__setattr__(self, "support_nodes", y)
        if self.weights is None:
            mu = np.ones(x.size)
        else:
            mu = np.atleast_1d(number_array(self.weights, "weights"))
        if mu.shape != x.shape:
            raise InvalidInputError("need one weight per test node")
        if not (np.all(np.isfinite(mu)) and np.all(mu > 0)):
            raise InvalidInputError("weights must be finite and positive")
        object.__setattr__(self, "weights", mu)

    @property
    def n(self):
        return self.test_nodes.size

    @property
    def m(self):
        return self.support_nodes.size


@dataclass(frozen=True)
class PhaseDiagonals:
    """Diagonals of the unit-modulus phase matrices K (support side) and R
    (test side), plus S_f = exp(i y_j) and S_F = exp(i x_k)."""

    K: np.ndarray
    R: np.ndarray
    S_f: np.ndarray
    S_F: np.ndarray


def phase_entries(theta):
    """(1 - e^{-i t}) / |1 - e^{-i t}|, falling back to i when e^{-i t} = 1.

    Computed through the half-angle identity
    1 - e^{-it} = 2 sin(t/2) (sin(t/2) + i cos(t/2)), which avoids the
    cancellation in 1 - cos(t) near the degenerate branch and keeps the
    entry phases accurate to roundoff.
    """
    h = 0.5 * number_array(theta, "angles")
    s = np.sin(h)
    c = np.cos(h)
    degenerate = 2.0 * np.abs(s) <= 4.0 * EPS
    sgn = np.where(s >= 0.0, 1.0, -1.0)
    return np.where(degenerate, 1j, sgn * (s + 1j * c))


def phase_diagonals(nodes):
    x, y = nodes.test_nodes, nodes.support_nodes
    return PhaseDiagonals(
        K=phase_entries(y),
        R=phase_entries(x),
        S_f=np.exp(1j * y),
        S_F=np.exp(1j * x),
    )


def interpolatory_system(C, ph, variant):
    """Lhat = 2 Im(R C K*) (modified) or the Loewner matrix S_F C - C S_f,
    for C the columns of ph's last C.shape[1] support nodes, so that a fit
    extends its system by its new node's column alone."""
    last = slice(ph.K.size - C.shape[1], None)
    if variant == "modified":
        return 2.0 * np.imag(ph.R[:, None] * C * np.conj(ph.K[last])[None, :])
    return (ph.S_F[:, None] - ph.S_f[last][None, :]) * C


def check_test_count(n_test, m):
    """Reject fewer than m - 1 test nodes for m support nodes: an n x m
    interpolatory system, or a Lawson step's (n + m) x 2m one, then has a
    null space of dimension at least 2, and no determined vector."""
    if n_test < m - 1:
        raise InvalidInputError(f"{m} support nodes need at least {m - 1} "
                                f"test nodes, got {n_test}")


def interpolatory_coefficients(A, ph, variant):
    """(alpha, w, solve) for ``solve`` the ``SmallestVector`` of A
    (``smallest_right_vector``) and v its vector: (conj(w), w = i K v) or
    (S_f v, v)."""
    solve = smallest_right_vector(A)
    v = solve.vector
    if variant == "original":
        return ph.S_f * v, v, solve
    w = 1j * ph.K * v
    return np.conj(w), w, solve


def expanded_system(M, ph, variant, out=None):
    """Bhat = [Re(R) M | -Im(R) M] (modified) or [M | -S_F M], for a real M,
    in Fortran order, so that LAPACK's QR of it needs no transposing copy.

    The system is written into ``out``, the array an earlier call returned
    for an M of the same shape and the same variant, as a fit's steps refill
    their one system; without it, into a new array."""
    n, m = M.shape
    modified = variant == "modified"
    if out is None:
        out = np.empty((n, 2 * m), dtype=float if modified else complex, order="F")
    if modified:
        np.multiply(ph.R.real[:, None], M, out=out[:, :m])
        np.multiply(-ph.R.imag[:, None], M, out=out[:, m:])
    else:
        # M cast to complex: for a finite M, the bits of 1 M
        out[:, :m] = M
        np.multiply(-ph.S_F[:, None], M, out=out[:, m:])
    return out


def expanded_coefficients(A, variant, qr=None, weights=None):
    """(alpha, beta, solve) for ``solve`` the ``SmallestVector`` of A
    (``smallest_right_vector``, which a fit's ``linalg.WeightedQR`` and the
    step's weights reach) and ``_expanded_pair`` of its vector."""
    solve = smallest_right_vector(A, qr, weights)
    return (*_expanded_pair(solve.vector, variant), solve)


def _expanded_pair(g, variant):
    """(alpha, beta) of a Lawson system's unit vector g: (conj(b),
    b = (g_1 - i g_2)/sqrt2) (modified) or g = [alpha; beta]."""
    m = g.size // 2
    if variant == "original":
        return g[:m], g[m:]
    beta = (g[:m] - 1j * g[m:]) / np.sqrt(2.0)
    return np.conj(beta), beta


def _differences(nodes, allow_overlap=False):
    D = nodes.test_nodes[:, None] - nodes.support_nodes[None, :]
    if not allow_overlap and np.any(D == 0.0):
        k, j = np.argwhere(D == 0.0)[0]
        raise NodeCollisionError(nodes.test_nodes[k], nodes.support_nodes[j])
    return D


def check_differences(nodes):
    """Reject distinct nodes two of which have a difference, or a reciprocal
    of it, that is not finite, naming the two.  Every difference lies
    between the sorted nodes' smallest adjacent gap and their span, so only
    those are tested."""
    s = np.sort(nodes)
    with np.errstate(over="ignore", divide="ignore"):
        bad = np.flatnonzero(~np.isfinite(1.0 / np.diff(s)))
        if bad.size or not np.isfinite(s[-1] - s[0]):
            a, b = (s[bad[0]], s[bad[0] + 1]) if bad.size else (s[0], s[-1])
            raise InvalidInputError(f"nodes {float(a)!r} and {float(b)!r}: their difference "
                                    "or its reciprocal is not finite")


def cauchy(nodes):
    """C_kj = 1 / (x_k - y_j); disjoint node sets only."""
    return 1.0 / _differences(nodes)


def loewner(nodes):
    """L_kj = (e^{i x_k} - e^{i y_j}) / (x_k - y_j)."""
    return interpolatory_system(cauchy(nodes), phase_diagonals(nodes), "original")


def weighted_loewner(nodes):
    """Loewner matrix with rows scaled by sqrt(mu_k)."""
    return np.sqrt(nodes.weights)[:, None] * loewner(nodes)


def rescaled_loewner(nodes):
    """Real matrix 2 Im(R M K*) with M = diag(sqrt(mu)) C; shares singular
    values with the (weighted) Loewner matrix."""
    M = np.sqrt(nodes.weights)[:, None] * cauchy(nodes)
    return interpolatory_system(M, phase_diagonals(nodes), "modified")


@dataclass(frozen=True)
class MinSingularResult:
    """Minimizing coefficient vector w = i K (last right singular vector),
    together with the fully converged singular values of the matrix it came
    from."""

    coefficients: np.ndarray
    singular_values: np.ndarray


def min_singular_coefficients(lhat, phases):
    """Unit-norm w with ||L w||_2 = sigma_min and f_j w_j = conj(w_j)."""
    lhat = number_array(lhat, "Lhat")
    n, m = lhat.shape
    check_test_count(n, m)
    if phases.K.size != m:
        raise InvalidInputError("phase diagonal K does not match the column count")
    res = svd_real(lhat)
    return MinSingularResult(coefficients=1j * phases.K * res.right_vectors[:, -1],
                             singular_values=res.singular_values)


def modified_cauchy(nodes):
    """Cauchy matrix with the row for a test node x_k = y_j replaced by the
    j-th unit row."""
    D = _differences(nodes, allow_overlap=True)
    hit = D == 0.0
    # the reciprocals in place of the differences, a hit's row then cleared
    with np.errstate(divide="ignore"):
        C = np.divide(1.0, D, out=D)
    C[hit.any(axis=1)] = 0.0
    C[hit] = 1.0
    return C


def expanded_loewner(nodes):
    """[M | -S_F M] with M = diag(sqrt(mu)) C' (complex, n x 2m)."""
    M = np.sqrt(nodes.weights)[:, None] * modified_cauchy(nodes)
    return expanded_system(M, phase_diagonals(nodes), "original")


def bhat(nodes):
    """Real n x 2m matrix [Re(R) M | -Im(R) M]; its singular values are
    those of [M | -S_F M] divided by sqrt(2)."""
    M = np.sqrt(nodes.weights)[:, None] * modified_cauchy(nodes)
    return expanded_system(M, phase_diagonals(nodes), "modified")


def min_singular_pair(bhat_matrix):
    """(alpha, beta) from the smallest right singular vector of Bhat, as a
    modified Lawson step takes them (``expanded_coefficients``): the
    eigensolve's vector where it is certified, else the kernel's.  They
    satisfy alpha_j = conj(beta_j) and minimize ||[M | -S_F M]
    [alpha; beta]||_2."""
    B = number_array(bhat_matrix, "Bhat")
    check_matrix(B)
    if B.shape[1] % 2 != 0:
        raise InvalidInputError("Bhat must have an even number of columns")
    return expanded_coefficients(B, "modified")[:2]
