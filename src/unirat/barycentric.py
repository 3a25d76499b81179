"""Barycentric rational approximants of exp(ix) and their evaluation.

Three forms share one model: r(x) = sum alpha_j/(x-y_j) / sum beta_j/(x-y_j)
over distinct real support nodes y_j, with the limit alpha_j/beta_j at y_j.

* ``BarycentricInterpolant`` -- alpha = f w, beta = w with f_j = exp(i y_j);
  interpolates exp(ix) at the support nodes.
* ``CayleyApproximant`` -- alpha = conj(w), beta = w: r = conj(xi)/xi with
  xi(x) = sum w_j/(x-y_j) has unit modulus on the real axis by construction.
* ``NonInterpolatoryApproximant`` -- alpha and beta as given.

Every form evaluates through one kernel.  It walks the points in blocks of
``BLOCK_ELEMENTS`` point-node pairs, so its buffers (about 1 MB) stay in cache
and do not grow with the points or nodes, and the values do not depend on the
blocking.  Each block forms 1/(x - y_j) once for numerator and denominator,
and finds support-node hits by exact float equality; a hit takes the limit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousEvaluationError,
    InvalidInputError,
    NotCayleyRepresentableError,
    PoleEvaluationError,
)
from .linalg import EPS

#: Point-node pairs per evaluation block.
BLOCK_ELEMENTS = 2**16


def check_nodes(nodes, name="nodes", least=1):
    """``nodes`` as a float array of at least ``least`` finite, distinct values."""
    v = np.atleast_1d(np.asarray(nodes, dtype=float))
    if v.size < least:
        raise InvalidInputError(f"need at least {least} {name}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} must be finite")
    if len(set(v.tolist())) != v.size:
        raise InvalidInputError(f"{name} must be pairwise distinct")
    return v


def coefficient_norm(vectors):
    """||c||_2 of one coefficient vector; sqrt(||alpha||^2 + ||beta||^2) of a pair."""
    with np.errstate(over="ignore"):
        if len(vectors) == 1:
            return np.linalg.norm(vectors[0])
        return np.sqrt(sum(np.linalg.norm(v) ** 2 for v in vectors))


def _partial_fraction(coeff, support, xv):
    """Row sums of coeff_j / (x - y_j), and per point the index of the
    support node it hits (-1 for none); at a hit of y_j the sum is coeff_j.

    ``coeff`` is one coefficient vector, or a (k, m) stack of them sharing
    the reciprocals; the sums then have shape (k, xv.size).
    """
    stack = coeff.reshape(-1, support.size)
    sums = np.empty((len(stack), xv.size), dtype=complex)
    node = np.full(xv.size, -1)
    rows = max(1, BLOCK_ELEMENTS // support.size)
    # buffers reused by every block; fresh ones leave more memory resident
    D_buf = np.empty((min(rows, xv.size), support.size))
    T_buf = np.empty(D_buf.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, xv.size, rows):
            x = xv[start:start + rows, None]
            D = np.subtract(x, support, out=D_buf[:len(x)])
            if not D.all():
                i, j = np.nonzero(D == 0.0)  # distinct nodes: one hit per row
                node[start + i] = j
            inv = np.divide(1.0, D, out=D)
            T = T_buf[:len(x)]
            for c, s in zip(stack, sums):
                np.sum(np.multiply(c, inv, out=T), axis=1, out=s[start:start + rows])
    # 1/(x - y_j) overflows at a subnormal distance from y_j, which leaves
    # every row sum non-finite: such a point is a hit of y_j as well
    near = (node < 0) & ~np.isfinite(sums[0])
    if near.any():
        node[near] = np.argmin(np.abs(xv[near, None] - support), axis=1)
    hits = node >= 0
    sums[:, hits] = stack[:, node[hits]]
    return sums.reshape(coeff.shape[:-1] + (xv.size,)), node


def _prepare(x):
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xv)):
        raise InvalidInputError("evaluation points must be finite")
    return xv, np.isscalar(x) or np.ndim(x) == 0


def _finish(out, scalar):
    return complex(out[0]) if scalar else out


def _quotient(alpha, beta, support, x, hit_error):
    """n/d at the points x, the limit alpha_j/beta_j at a hit of y_j; returns
    the values, the hit indices and whether x was a scalar.  A zero d raises
    PoleEvaluationError, or ``hit_error`` at a hit."""
    xv, scalar = _prepare(x)
    (d, n), node = _partial_fraction(np.stack([beta, alpha]), support, xv)
    zero = d == 0.0
    if np.any(zero):
        plain = zero & (node < 0)
        if np.any(plain):
            raise PoleEvaluationError(float(xv[np.argmax(plain)]))
        raise hit_error(float(xv[np.argmax(zero)]))
    with np.errstate(invalid="ignore"):
        return n / d, node, scalar


def node_quotient(C, alpha, beta):
    """(C alpha) / (C beta) for a Cauchy-type matrix C, inf where C beta = 0:
    the approximant's values at the test nodes during a fit."""
    den = C @ beta
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (C @ alpha) / den
    r[den == 0.0] = np.inf
    return r


def cayley_phase_residual(w, support):
    """max_j |e^{i y_j} w_j - conj(w_j)|."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    support = np.atleast_1d(np.asarray(support, dtype=float))
    if w.shape != support.shape:
        raise InvalidInputError("coefficients and support nodes must match in length")
    return float(np.max(np.abs(np.exp(1j * support) * w - np.conj(w))))


class _Quotient:
    """Base of the three forms.  Each is a frozen dataclass that declares
    ``KIND``, its JSON kind tag, and ``COEFFICIENTS``, its coefficient fields
    with beta's last, and binds ``denominator`` in its own namespace so that
    the method can be wrapped per form.  Construction checks the support
    nodes and scales the coefficients jointly to unit norm.
    """

    COEFFICIENTS = ("coefficients",)

    def __post_init__(self):
        y = check_nodes(self.support, "support nodes")
        vectors = [np.ascontiguousarray(getattr(self, name), dtype=complex)
                   for name in self.COEFFICIENTS]
        if any(c.shape != y.shape for c in vectors):
            raise InvalidInputError("coefficients must have one entry per support node")
        if not all(np.all(np.isfinite(c)) for c in vectors):
            raise InvalidInputError("coefficients must be finite")
        norm = coefficient_norm(vectors)
        # a norm whose square under- or overflows is inexact: divide each part
        # by the largest one first (complex division by a subnormal overflows)
        if not np.sqrt(np.finfo(float).tiny) <= norm < np.inf:
            top = max(np.max(np.abs(c.view(float))) for c in vectors)
            if top == 0.0:
                raise InvalidInputError("coefficients must not be identically zero")
            vectors = [(c.view(float) / top).view(complex) for c in vectors]
            norm = coefficient_norm(vectors)
        if abs(norm - 1.0) > 32 * EPS:  # keep already-normalized vectors bit-stable
            vectors = [c / norm for c in vectors]
        object.__setattr__(self, "support", y)
        for name, c in zip(self.COEFFICIENTS, vectors):
            object.__setattr__(self, name, c)

    def denominator(self, x):
        """sum beta_j/(x - y_j); beta_j at a support node y_j."""
        xv, scalar = _prepare(x)
        beta = getattr(self, self.COEFFICIENTS[-1])
        return _finish(_partial_fraction(beta, self.support, xv)[0], scalar)


@dataclass(frozen=True)
class BarycentricInterpolant(_Quotient):
    """Interpolatory form r = n/d."""

    KIND = "interpolatory"

    support: np.ndarray
    coefficients: np.ndarray

    @property
    def values(self):
        """f_j = exp(i y_j)."""
        return np.exp(1j * self.support)

    def eval(self, x):
        return eval_interpolant(self, x)

    denominator = _Quotient.denominator


def eval_interpolant(r, x):
    """Evaluate r = n/d; at a support node y_j returns f_j = exp(i y_j)."""
    f, w = r.values, r.coefficients
    out, node, scalar = _quotient(f * w, w, r.support, x, AmbiguousEvaluationError)
    hits = node >= 0
    out[hits] = f[node[hits]]
    return _finish(out, scalar)


@dataclass(frozen=True)
class CayleyApproximant(_Quotient):
    """Unitary form r = conj(xi)/xi.

    ``phase_residual`` records max |f_j w_j - conj(w_j)|; it is at machine
    precision for coefficients built as i K (real vector), in which case the
    approximant also interpolates exp(ix) at the support nodes.
    """

    KIND = "cayley"

    support: np.ndarray
    coefficients: np.ndarray

    @property
    def phase_residual(self):
        return cayley_phase_residual(self.coefficients, self.support)

    def eval(self, x):
        return eval_cayley(self, x)

    denominator = _Quotient.denominator


def to_cayley(w, support, tol=1e-12):
    """Certified construction: rejects coefficients whose conjugate-phase
    residual exceeds ``tol``."""
    r = CayleyApproximant(support=support, coefficients=w)
    if r.phase_residual > tol:
        raise NotCayleyRepresentableError(r.phase_residual, tol)
    return r


def eval_cayley(r, x):
    """conj(xi)/xi with xi = sum w_j/(x-y_j); at a support hit xi = w_j."""
    xv, scalar = _prepare(x)
    xi, _ = _partial_fraction(r.coefficients, r.support, xv)
    if np.any(xi == 0.0):
        raise PoleEvaluationError(float(xv[np.argmax(xi == 0.0)]))
    return _finish(np.conj(xi) / xi, scalar)


@dataclass(frozen=True)
class NonInterpolatoryApproximant(_Quotient):
    """r_b = n_b/d_b with independent numerator and denominator coefficients;
    normalized so ||alpha||^2 + ||beta||^2 = 1."""

    KIND = "noninterpolatory"
    COEFFICIENTS = ("alpha", "beta")

    support: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def eval(self, x):
        return eval_noninterpolatory(self, x)

    denominator = _Quotient.denominator


def eval_noninterpolatory(r, x):
    """n_b/d_b off support; the limit alpha_j/beta_j at a support hit."""
    out, _, scalar = _quotient(r.alpha, r.beta, r.support, x, PoleEvaluationError)
    return _finish(out, scalar)
