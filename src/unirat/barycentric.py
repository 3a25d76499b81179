"""Barycentric rational approximants of exp(ix) and their evaluation.

Three forms share one model: r(x) = sum alpha_j/(x-y_j) / sum beta_j/(x-y_j)
over distinct real support nodes y_j, with the limit alpha_j/beta_j at y_j.

* ``BarycentricInterpolant`` -- alpha = f w, beta = w with f_j = exp(i y_j);
  interpolates exp(ix) at the support nodes.
* ``CayleyApproximant`` -- alpha = conj(w), beta = w: r = conj(xi)/xi with
  xi(x) = sum w_j/(x-y_j) has unit modulus on the real axis by construction.
* ``NonInterpolatoryApproximant`` -- alpha and beta as given.

Every form evaluates through one kernel.  It walks the points in blocks of
``BLOCK_POINTS`` and, inside a block, the support nodes one by one, adding
each node's terms to running sums in NumPy's own summation order
(``_add_terms``).  So its buffers (0.8 MB for a numerator-denominator pair
at up to 64 nodes) stay in cache and do not grow with the points, and the
values do not depend on the blocking.  Each node's 1/(x - y_j) serves
numerator and denominator alike.  A point whose sum is not finite hits its
nearest support node, exactly or at a subnormal distance, and takes the
limit there.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import AmbiguousEvaluationError, InvalidInputError, PoleEvaluationError
from .linalg import EPS, real_array

#: Points per evaluation block.
BLOCK_POINTS = 2**13


def is_count(k):
    """Whether k is an integer; bool, an Integral subclass, is not a count."""
    return isinstance(k, Integral) and not isinstance(k, bool)


def check_nodes(nodes, name="nodes", least=1):
    """``nodes`` as a 1-D float array of at least ``least`` finite, distinct
    values."""
    v = np.atleast_1d(real_array(nodes, name))
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-D, got shape {v.shape}")
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
    """Sums of coeff_j / (x - y_j) over the nodes, and per point the index of
    the support node it hits (-1 for none); at a hit of y_j the sum is coeff_j.

    ``coeff`` is one coefficient vector, or a (k, m) stack of them sharing
    the reciprocals; the sums then have shape (k, xv.size).
    """
    stack = coeff.reshape(-1, support.size)
    cols = stack.T[:, :, None]
    sums = np.empty((len(stack), xv.size), dtype=complex)
    node = np.full(xv.size, -1)
    size = min(BLOCK_POINTS, xv.size)
    # buffers reused by every block; fresh ones leave more memory resident
    inv = np.empty(size)
    term = np.empty((len(stack), size), dtype=complex)
    acc = np.empty((_accumulators(support.size),) + term.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, xv.size, BLOCK_POINTS):
            x = xv[start:start + BLOCK_POINTS]
            n = len(x)
            out = sums[:, start:start + n]
            _add_terms(cols, support, x, out, acc[:, :, :n], term[:, :n], inv[:n])
            out += 0.0  # NumPy adds the total to +0, which turns -0 into +0
    # at y_j, or a subnormal distance from it, 1/(x - y_j) overflows and
    # every sum is non-finite: such a point hits its nearest support node
    hits = ~np.isfinite(sums[0])
    if hits.any():
        node[hits] = np.argmin(np.abs(xv[hits, None] - support), axis=1)
        sums[:, hits] = stack[:, node[hits]]
    return sums.reshape(coeff.shape[:-1] + (xv.size,)), node


def _accumulators(n):
    """Partial-sum buffers ``_add_terms`` needs for n nodes."""
    if n <= 64:
        return 2 if n >= 4 else 0
    half = (n - n % 8) // 2
    return max(_accumulators(half), 1 + _accumulators(n - half))


def _add_terms(cols, y, x, out, acc, term, inv):
    """Writes to ``out`` the sums over the nodes y_j of cols[j] / (x - y_j),
    adding the terms in the order of NumPy's pairwise sum of a contiguous
    complex row of n = len(y) terms, so that the sums are bit for bit those
    of ``np.sum(terms, axis=1)`` over the n-column term array:

    * n < 4: in order;
    * 4 <= n <= 64: partial sums s_r of the first 4 floor(n/4) terms with
      j = r mod 4, combined as (s_0 + s_1) + (s_2 + s_3), then the
      remaining terms in order;
    * n > 64: the two halves split at (n - n mod 8)/2, each summed by this
      rule, then added.

    ``cols`` is (n, k, 1).  ``acc`` holds partial sums, ``term`` one term
    and ``inv`` one node's reciprocals.
    """
    def add(j, into, fresh=False):
        # c_j * (1/(x - y_j)): one complex-by-real cast and multiply per term
        np.subtract(x, y[j], out=inv)
        np.divide(1.0, inv, out=inv)
        np.multiply(cols[j], inv, out=into if fresh else term)
        if not fresh:
            into += term

    n = len(y)
    if n > 64:
        half = (n - n % 8) // 2
        _add_terms(cols[:half], y[:half], x, out, acc, term, inv)
        _add_terms(cols[half:], y[half:], x, acc[0], acc[1:], term, inv)
        out += acc[0]
        return
    tail = n - n % 4
    if tail:
        # s_0 and s_1 in out and acc[1], then s_2 and s_3 in acc[0] and acc[1]
        for r, into in ((0, out), (2, acc[0])):
            for first, s in ((r, into), (r + 1, acc[1])):
                add(first, s, fresh=True)
                for j in range(first + 4, tail, 4):
                    add(j, s)
            into += acc[1]
        out += acc[0]
    else:
        add(0, out, fresh=True)
        tail = 1
    for j in range(tail, n):
        add(j, out)


def _prepare(x):
    """The points as a flat float array, and the shape of x."""
    xv = real_array(x, "evaluation points")
    if not np.all(np.isfinite(xv)):
        raise InvalidInputError("evaluation points must be finite")
    return xv.ravel(), xv.shape


def _finish(out, shape):
    """Values at the flat points in the shape of x; a complex for a scalar."""
    return complex(out[0]) if shape == () else out.reshape(shape)


def _quotient(alpha, beta, support, x, hit_error):
    """n/d at the points x, the limit alpha_j/beta_j at a hit of y_j; returns
    the flat values, the hit indices and the shape of x.  A zero d raises
    PoleEvaluationError, or ``hit_error`` at a hit."""
    xv, shape = _prepare(x)
    (d, n), node = _partial_fraction(np.stack([beta, alpha]), support, xv)
    zero = d == 0.0
    if np.any(zero):
        plain = zero & (node < 0)
        if np.any(plain):
            raise PoleEvaluationError(float(xv[np.argmax(plain)]))
        raise hit_error(float(xv[np.argmax(zero)]))
    with np.errstate(invalid="ignore"):
        return n / d, node, shape


def node_quotient(C, alpha, beta):
    """(C alpha) / (C beta) for a Cauchy-type matrix C, inf where C beta = 0:
    the approximant's values at the test nodes during a fit."""
    den = C @ beta
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (C @ alpha) / den
    r[den == 0.0] = np.inf
    return r


class _Quotient:
    """Base of the three forms.  Each is a frozen dataclass that declares
    ``KIND``, its JSON kind tag, and ``COEFFICIENTS``, its coefficient fields;
    exposes ``alpha`` and ``beta`` as fields or read-only properties; and
    binds ``denominator`` in its own namespace so that the method can be
    wrapped per form.  Construction checks the support nodes and scales the
    coefficients jointly to unit norm.
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
        xv, shape = _prepare(x)
        return _finish(_partial_fraction(self.beta, self.support, xv)[0], shape)


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

    @property
    def alpha(self):
        return self.values * self.coefficients

    @property
    def beta(self):
        return self.coefficients

    def eval(self, x):
        return eval_interpolant(self, x)

    denominator = _Quotient.denominator


def eval_interpolant(r, x):
    """Evaluate r = n/d; at a support node y_j returns f_j = exp(i y_j)."""
    out, node, shape = _quotient(r.alpha, r.beta, r.support, x, AmbiguousEvaluationError)
    hits = node >= 0
    out[hits] = r.values[node[hits]]
    return _finish(out, shape)


@dataclass(frozen=True)
class CayleyApproximant(_Quotient):
    """Unitary form r = conj(xi)/xi.

    ``phase_residual`` is the interpolation residual max_j |f_j w_j -
    conj(w_j)|, since r(y_j) = conj(w_j)/w_j; it is at machine precision for
    coefficients built as i K (real vector), in which case the approximant
    interpolates exp(ix) at the support nodes.
    """

    KIND = "cayley"

    support: np.ndarray
    coefficients: np.ndarray

    @property
    def alpha(self):
        return np.conj(self.coefficients)

    beta = BarycentricInterpolant.beta

    @property
    def phase_residual(self):
        w = self.coefficients
        return float(np.max(np.abs(np.exp(1j * self.support) * w - np.conj(w))))

    def eval(self, x):
        return eval_cayley(self, x)

    denominator = _Quotient.denominator


def eval_cayley(r, x):
    """conj(xi)/xi with xi = sum w_j/(x-y_j); at a support hit xi = w_j."""
    xv, shape = _prepare(x)
    xi, _ = _partial_fraction(r.coefficients, r.support, xv)
    if np.any(xi == 0.0):
        raise PoleEvaluationError(float(xv[np.argmax(xi == 0.0)]))
    return _finish(np.conj(xi) / xi, shape)


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
    out, _, shape = _quotient(r.alpha, r.beta, r.support, x, PoleEvaluationError)
    return _finish(out, shape)
