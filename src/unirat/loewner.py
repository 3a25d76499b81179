"""Loewner-type matrices for rational approximation of exp(ix).

All constructors hard-code the target function f(x) = exp(ix).  The module
builds the Cauchy matrix C, the Loewner matrix L (entrywise or weighted),
the real re-scaled matrix Lhat = 2 Im(R C K*), and for the non-interpolatory
setting the modified Cauchy matrix C' (unit rows where a test node equals a
support node), the expanded matrix [M | -S_F M] and its real counterpart
Bhat = [Re(R) M | -Im(R) M].  The distinguished minimizing coefficient
vectors are extracted from the real SVDs.
"""

from dataclasses import dataclass, field

import numpy as np

from .barycentric import check_nodes
from .errors import InvalidInputError, NodeCollisionError
from .linalg import EPS, svd_real

SQRT2 = np.sqrt(2.0)

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
            mu = np.atleast_1d(np.asarray(self.weights, dtype=float))
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
    theta = np.asarray(theta, dtype=float)
    h = 0.5 * theta
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


def _differences(nodes, allow_overlap=False):
    D = nodes.test_nodes[:, None] - nodes.support_nodes[None, :]
    if not allow_overlap and np.any(D == 0.0):
        k, j = np.argwhere(D == 0.0)[0]
        raise NodeCollisionError(nodes.test_nodes[k], nodes.support_nodes[j])
    return D


def cauchy(nodes):
    """C_kj = 1 / (x_k - y_j); disjoint node sets only."""
    return 1.0 / _differences(nodes)


def loewner(nodes):
    """L_kj = (e^{i x_k} - e^{i y_j}) / (x_k - y_j)."""
    D = _differences(nodes)
    F = np.exp(1j * nodes.test_nodes)
    f = np.exp(1j * nodes.support_nodes)
    return (F[:, None] - f[None, :]) / D


def weighted_loewner(nodes):
    """Loewner matrix with rows scaled by sqrt(mu_k)."""
    return np.sqrt(nodes.weights)[:, None] * loewner(nodes)


def rescaled_loewner(nodes):
    """Real matrix 2 Im(R M K*) with M = diag(sqrt(mu)) C; shares singular
    values with the (weighted) Loewner matrix."""
    ph = phase_diagonals(nodes)
    M = np.sqrt(nodes.weights)[:, None] * cauchy(nodes)
    return 2.0 * np.imag(ph.R[:, None] * M * np.conj(ph.K)[None, :])


@dataclass(frozen=True)
class MinSingularResult:
    """Minimizing coefficient vector w = i K (last right singular vector),
    together with the singular values of the matrix it came from."""

    coefficients: np.ndarray
    singular_values: np.ndarray
    degenerate: bool = field(default=False)


def min_singular_coefficients(lhat, phases):
    """Unit-norm w with ||L w||_2 = sigma_min and f_j w_j = conj(w_j)."""
    lhat = np.asarray(lhat, dtype=float)
    n, m = lhat.shape
    if n < m - 1:
        raise InvalidInputError(f"need at least m-1 test nodes, got {n} for m={m}")
    if phases.K.size != m:
        raise InvalidInputError("phase diagonal K does not match the column count")
    res = svd_real(lhat)
    w = 1j * phases.K * res.right_vectors[:, -1]
    sig = res.singular_values
    degenerate = m >= 2 and (sig[-2] - sig[-1]) <= 8.0 * EPS * sig[0]
    return MinSingularResult(
        coefficients=w, singular_values=sig, degenerate=bool(degenerate)
    )


def modified_cauchy(nodes):
    """Cauchy matrix with the row for a test node x_k = y_j replaced by the
    j-th unit row."""
    D = _differences(nodes, allow_overlap=True)
    hit = D == 0.0
    hit_rows = np.any(hit, axis=1)
    C = np.zeros_like(D)
    with np.errstate(divide="ignore"):
        C[~hit_rows] = 1.0 / D[~hit_rows]
    C[hit] = 1.0
    return C


def expanded_loewner(nodes):
    """[M | -S_F M] with M = diag(sqrt(mu)) C' (complex, n x 2m)."""
    M = np.sqrt(nodes.weights)[:, None] * modified_cauchy(nodes)
    S_F = np.exp(1j * nodes.test_nodes)
    return np.hstack([M, -S_F[:, None] * M])


def bhat(nodes):
    """Real n x 2m matrix [Re(R) M | -Im(R) M]; its singular values are
    those of [M | -S_F M] divided by sqrt(2)."""
    M = np.sqrt(nodes.weights)[:, None] * modified_cauchy(nodes)
    R = phase_entries(nodes.test_nodes)
    return np.hstack([R.real[:, None] * M, -R.imag[:, None] * M])


def min_singular_pair(bhat_matrix):
    """(alpha, beta) from the last right singular vector of Bhat; satisfies
    alpha_j = conj(beta_j) and minimizes ||[M | -S_F M] [alpha; beta]||_2."""
    B = np.asarray(bhat_matrix, dtype=float)
    if B.shape[1] % 2 != 0:
        raise InvalidInputError("Bhat must have an even number of columns")
    m = B.shape[1] // 2
    res = svd_real(B)
    g = res.right_vectors[:, -1]
    alpha = (g[:m] + 1j * g[m:]) / SQRT2
    beta = (g[:m] - 1j * g[m:]) / SQRT2
    return alpha, beta
