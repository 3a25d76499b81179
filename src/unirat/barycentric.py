"""Barycentric rational approximants of exp(ix) and their evaluation.

Three forms are provided:

* ``BarycentricInterpolant`` -- r(x) = sum f_j w_j/(x-y_j) / sum w_j/(x-y_j)
  with f_j = exp(i y_j); interpolates exp(ix) at the support nodes.
* ``CayleyApproximant`` -- r(x) = conj(xi(x))/xi(x) with
  xi(x) = sum w_j/(x-y_j); unit modulus on the real axis by construction.
* ``NonInterpolatoryApproximant`` -- quotient of two independent partial
  fractions with coefficients alpha and beta.

Every form evaluates through one kernel.  It walks the points in blocks of
``BLOCK_ELEMENTS`` point-node pairs, so its buffers (about 1 MB) stay in cache
and do not grow with the points or nodes, and the values do not depend on the
blocking.  Each block forms 1/(x - y_j) once for numerator and denominator,
and finds support-node hits by exact float equality; a hit takes the limit.
"""

from dataclasses import dataclass, field

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


def _check_support(y):
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size < 1 or not np.all(np.isfinite(y)):
        raise InvalidInputError("support nodes must be nonempty and finite")
    if len(set(y.tolist())) != y.size:
        raise InvalidInputError("support nodes must be pairwise distinct")
    return y


def _as_coeff(w, m, name="coefficients"):
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if w.shape != (m,):
        raise InvalidInputError(f"{name} must have one entry per support node")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError(f"{name} must be finite")
    return w


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
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _quotient(n, d, hits, xv, hit_error):
    """n / d; a zero d raises PoleEvaluationError, or ``hit_error`` at a hit."""
    zero = d == 0.0
    if np.any(zero):
        plain = zero & ~hits
        if np.any(plain):
            raise PoleEvaluationError(float(xv[np.argmax(plain)]))
        raise hit_error(float(xv[np.argmax(zero)]))
    with np.errstate(invalid="ignore"):
        return n / d


def cayley_phase_residual(w, support):
    """max_j |e^{i y_j} w_j - conj(w_j)|."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    support = np.atleast_1d(np.asarray(support, dtype=float))
    if w.shape != support.shape:
        raise InvalidInputError("coefficients and support nodes must match in length")
    return float(np.max(np.abs(np.exp(1j * support) * w - np.conj(w))))


@dataclass(frozen=True)
class BarycentricInterpolant:
    """Interpolatory form r = n/d; coefficients are normalized to unit norm."""

    support: np.ndarray
    coefficients: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        y = _check_support(self.support)
        w = _as_coeff(self.coefficients, y.size)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise InvalidInputError("coefficient vector must not be identically zero")
        if abs(norm - 1.0) > 32 * EPS:  # keep already-normalized vectors bit-stable
            w = w / norm
        object.__setattr__(self, "support", y)
        object.__setattr__(self, "coefficients", w)
        object.__setattr__(self, "values", np.exp(1j * y))

    def eval(self, x):
        return eval_interpolant(self, x)

    def denominator(self, x):
        """sum w_j/(x - y_j); w_j at a support node y_j."""
        xv, scalar = _prepare(x)
        return _finish(_partial_fraction(self.coefficients, self.support, xv)[0], scalar)


def eval_interpolant(r, x):
    """Evaluate r = n/d; at a support node y_j returns f_j = exp(i y_j)."""
    xv, scalar = _prepare(x)
    w = r.coefficients
    (d, n), node = _partial_fraction(np.stack([w, r.values * w]), r.support, xv)
    hits = node >= 0
    out = _quotient(n, d, hits, xv, AmbiguousEvaluationError)
    out[hits] = r.values[node[hits]]
    return _finish(out, scalar)


@dataclass(frozen=True)
class CayleyApproximant:
    """Unitary form r = conj(xi)/xi.

    ``phase_residual`` records max |f_j w_j - conj(w_j)|; it is at machine
    precision for coefficients built as i K (real vector), in which case the
    approximant also interpolates exp(ix) at the support nodes.
    """

    support: np.ndarray
    coefficients: np.ndarray
    phase_residual: float = field(init=False)

    def __post_init__(self):
        y = _check_support(self.support)
        w = _as_coeff(self.coefficients, y.size)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise InvalidInputError("coefficient vector must not be identically zero")
        if abs(norm - 1.0) > 32 * EPS:
            w = w / norm
        object.__setattr__(self, "support", y)
        object.__setattr__(self, "coefficients", w)
        object.__setattr__(self, "phase_residual", cayley_phase_residual(w, y))

    def eval(self, x):
        return eval_cayley(self, x)

    def denominator(self, x):
        xv, scalar = _prepare(x)
        return _finish(_partial_fraction(self.coefficients, self.support, xv)[0], scalar)


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
class NonInterpolatoryApproximant:
    """r_b = n_b/d_b with independent numerator and denominator coefficients;
    normalized so ||alpha||^2 + ||beta||^2 = 1."""

    support: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        y = _check_support(self.support)
        a = _as_coeff(self.alpha, y.size, "alpha")
        b = _as_coeff(self.beta, y.size, "beta")
        norm = np.sqrt(np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2)
        if norm == 0.0:
            raise InvalidInputError("coefficients must not be identically zero")
        if abs(norm - 1.0) > 32 * EPS:
            a = a / norm
            b = b / norm
        object.__setattr__(self, "support", y)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def eval(self, x):
        return eval_noninterpolatory(self, x)

    def denominator(self, x):
        xv, scalar = _prepare(x)
        return _finish(_partial_fraction(self.beta, self.support, xv)[0], scalar)


def eval_noninterpolatory(r, x):
    """n_b/d_b off support; the limit alpha_j/beta_j at a support hit."""
    xv, scalar = _prepare(x)
    (d, n), node = _partial_fraction(np.stack([r.beta, r.alpha]), r.support, xv)
    return _finish(_quotient(n, d, node >= 0, xv, PoleEvaluationError), scalar)
