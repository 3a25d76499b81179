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
(``_add_terms``).  Each node's 1/(x - y_j) serves numerator and denominator
alike.  A point whose sum is not finite hits its nearest support node,
exactly or at a subnormal distance, and takes the limit there.  The caller
writes each block's values straight into its slice of the result, so beside
the result evaluation holds only the kernel's block buffers (0.8 MB for a
numerator-denominator pair at up to 64 nodes), which stay in cache and do
not grow with the points; and the values do not depend on the blocking.

Three writers finish the blocks: ``_quotient`` writes n/d, and two take
any stream of denominator blocks: ``cayley_values`` writes conj(d)/d and
``denominator_values`` copies d.  ``eval_cayley`` and every form's
``denominator`` feed those two the kernel's blocks of d; the Padé
comparator (``unirat.pade``), the Cayley form of its own denominator q,
feeds them blocks of q.
"""

from dataclasses import dataclass
from functools import partial
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
    """Walks the flat points xv in blocks of ``BLOCK_POINTS``.  Yields, per
    block, its first index, the sums of coeff_j / (x - y_j) at its points,
    the block positions that hit a support node and the nodes they hit; at
    a hit of y_j the sum is coeff_j.

    ``coeff`` is one coefficient vector, or a (k, m) stack of them sharing
    the reciprocals; a block's sums then have shape (k, points).  Each block
    reuses the buffers of the last, so a caller finishes a block before it
    asks for the next.
    """
    stack = coeff.reshape(-1, support.size)
    cols = stack.T[:, :, None]
    size = min(BLOCK_POINTS, xv.size)
    # buffers reused by every block; fresh ones leave more memory resident
    inv = np.empty(size)
    sums = np.empty((len(stack), size), dtype=complex)
    term = np.empty_like(sums)
    acc = np.empty((_accumulators(support.size),) + sums.shape, dtype=complex)
    none = np.empty(0, dtype=np.intp)
    for start in range(0, xv.size, BLOCK_POINTS):
        x = xv[start:start + BLOCK_POINTS]
        n = len(x)
        out = sums[:, :n]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _add_terms(cols, support, x, out, acc[:, :, :n], term[:, :n], inv[:n])
            out += 0.0  # NumPy adds the total to +0, which turns -0 into +0
        # at y_j, or a subnormal distance from it, 1/(x - y_j) overflows and
        # every sum is non-finite: such a point hits its nearest support node
        hits = node = none
        hit = ~np.isfinite(out[0])
        if hit.any():
            hits = np.flatnonzero(hit)
            node = np.argmin(np.abs(x[hits, None] - support), axis=1)
            out[:, hits] = stack[:, node]
        yield start, out.reshape(coeff.shape[:-1] + (n,)), hits, node


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


def denominator_values(x, blocks):
    """d at the points x in the shape of x.  ``blocks(xv)`` yields, per block
    of the flat points xv, its first index and d there (and may yield more
    after them, as ``_partial_fraction`` does)."""
    xv, shape = _prepare(x)
    out = np.empty(xv.size, dtype=complex)
    for start, d, *_ in blocks(xv):
        out[start:start + len(d)] = d
    return _finish(out, shape)


def cayley_values(x, blocks):
    """The Cayley form conj(d)/d at the points x in the shape of x, from the
    blocks of d that ``blocks`` yields as for ``denominator_values``.  The
    first zero d in grid order raises PoleEvaluationError."""
    xv, shape = _prepare(x)
    out = np.empty(xv.size, dtype=complex)
    for start, d, *_ in blocks(xv):
        if not d.all():
            raise PoleEvaluationError(float(xv[start + np.argmax(d == 0.0)]))
        block = out[start:start + len(d)]
        np.divide(np.conjugate(d, out=block), d, out=block)
    return _finish(out, shape)


def _quotient(alpha, beta, support, x, hit_error, hit_values=None):
    """n/d at the points x in the shape of x, the limit alpha_j/beta_j at a
    hit of y_j, or ``hit_values[j]`` if given.  A zero d raises
    PoleEvaluationError, or ``hit_error`` at a hit; the first plain zero in
    grid order comes before any hit zero."""
    xv, shape = _prepare(x)
    out = np.empty(xv.size, dtype=complex)
    hit_zero = None
    for start, (d, n), hits, node in _partial_fraction(np.stack([beta, alpha]), support, xv):
        zero = d == 0.0
        if zero.any():
            if hit_zero is None:  # a hit's zero, unless a plain one raises below
                hit_zero = float(xv[start + np.argmax(zero)])
            zero[hits] = False
            if zero.any():
                raise PoleEvaluationError(float(xv[start + np.argmax(zero)]))
        if hit_zero is not None:
            continue  # no value is kept: the walk only looks for a plain pole
        block = out[start:start + len(d)]
        with np.errstate(invalid="ignore"):
            np.divide(n, d, out=block)
        if hit_values is not None:
            block[hits] = hit_values[node]
    if hit_zero is not None:
        raise hit_error(hit_zero)
    return _finish(out, shape)


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
    binds ``denominator`` in its own namespace, because ``bench/tracing.py``
    wraps the method on each form's class.  Construction checks the support
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
        return denominator_values(x, partial(_partial_fraction, self.beta, self.support))


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
    f, w = r.values, r.coefficients  # f formed once: alpha is f w
    return _quotient(f * w, w, r.support, x, AmbiguousEvaluationError, f)


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
    return cayley_values(x, partial(_partial_fraction, r.coefficients, r.support))


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
    return _quotient(r.alpha, r.beta, r.support, x, PoleEvaluationError)
