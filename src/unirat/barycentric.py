"""Barycentric rational approximants of exp(ix) and their evaluation.

Three forms share one model: r(x) = sum alpha_j/(x-y_j) / sum beta_j/(x-y_j)
over distinct real support nodes y_j, with the limit alpha_j/beta_j at y_j.

* ``BarycentricInterpolant`` -- alpha = f w, beta = w with f_j = exp(i y_j);
  interpolates exp(ix) at the support nodes.
* ``CayleyApproximant`` -- alpha = conj(w), beta = w: r = conj(xi)/xi with
  xi(x) = sum w_j/(x-y_j) has unit modulus on the real axis by construction.
* ``NonInterpolatoryApproximant`` -- alpha and beta as given.

Every form evaluates through one kernel.  It walks the points in blocks of
at most ``BLOCK_POINTS`` and, inside a block, the support nodes one by one,
adding each node's terms, in node order, to running sums that start at +0
(``_add_terms``).  The sums run in planar real rows, the real and the
imaginary part of each coefficient vector in rows of their own, so a term
costs one real multiply with no complex cast; the rows are joined into
complex sums once per block, with the bits complex arithmetic would give.
Each node's 1/(x - y_j) serves numerator and denominator alike.  A point
hits its nearest support node y_j where 1/(x - y_j) overflows, at y_j or a
subnormal distance from it, and takes the limit there; a sum that
overflows from finite terms is added again from scaled coefficients, and
the writers scale it back.  The caller writes each
block's values straight into its slice of the result, so beside the result
evaluation holds only the kernel's block buffers (by tracemalloc, 0.6 MB
for a numerator-denominator pair and 0.3 MB for one sum), which stay in
cache and grow neither with the points nor with the nodes; and the values
do not depend on the blocking.

Two writers finish any stream of blocks: ``quotient_values`` writes n/d
and ``denominator_values`` copies d.  A block of d alone stands for the
Cayley form conj(d)/d: ``eval_cayley`` feeds the kernel's blocks of xi, and
the Padé comparator (``unirat.pade``), the Cayley form of its own
denominator q, feeds blocks of q.  The interpolant and the
non-interpolatory form feed the rows (d, n) with their support hits, and
every form's ``denominator`` feeds the kernel's blocks of d.  Each n/d,
there and in a fit's node values (``node_quotient``, which reads the
Cayley form from one product), follows one division rule (``_divide``): a
subnormal d overflows the complex division, and a part of d from 2^1021 on
underflows its scale, so there, and only there, n and d are divided again
scaled by an exact power of two, and every other quotient keeps its
bits.

Every form follows one pole rule: the first zero denominator in grid order
raises ``PoleEvaluationError``, before any later block is evaluated.  A hit
of a support node whose denominator coefficient is 0 is such a zero, so
``eval`` raises exactly where ``denominator`` reads 0.
"""

import math
from dataclasses import dataclass
from functools import partial
from numbers import Integral

import numpy as np

from .errors import InvalidInputError, PoleEvaluationError
from .linalg import EPS, _ldexp, number_array

#: Points per evaluation block.
BLOCK_POINTS = 2**13

#: The power of two by which ``_partial_fraction`` scales a sum that
#: overflows from finite terms.
_SCALED_SHIFT = 64

#: The modulus of a part of d from which ``_divide`` scales n/d.
_DIVIDE_LIMIT = 2.0**1021


def is_count(k):
    """Whether k is an integer; bool, an Integral subclass, is not a count."""
    return isinstance(k, Integral) and not isinstance(k, bool)


def check_nodes(nodes, name="nodes", least=1):
    """``nodes`` as a 1-D float array of at least ``least`` finite, distinct
    values."""
    v = np.atleast_1d(number_array(nodes, name))
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size < least:
        raise InvalidInputError(f"need at least {least} {name}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} must be finite")
    if has_duplicates(v):
        raise InvalidInputError(f"{name} must be pairwise distinct")
    return v


def has_duplicates(v):
    """Whether two entries of the 1-D v are equal, by one sort; -0.0 and 0.0
    are equal, as they are in a set of the values."""
    s = np.sort(v)
    return bool((s[1:] == s[:-1]).any())


def coefficient_norm(vectors):
    """||c||_2 of one coefficient vector; sqrt(||alpha||^2 + ||beta||^2) of a pair."""
    with np.errstate(over="ignore"):
        if len(vectors) == 1:
            return np.linalg.norm(vectors[0])
        return np.sqrt(sum(np.linalg.norm(v) ** 2 for v in vectors))


def _partial_fraction(coeff, support, xv):
    """Walks the flat points xv in blocks of at most ``BLOCK_POINTS``, as
    few as that allows and of lengths that differ by at most one.  Yields,
    per block, its first index, the sums of coeff_j / (x - y_j) at its
    points, the block positions that hit a support node, the nodes they hit,
    the positions where a sum is scaled and, per sum there, the power of two
    by which it is scaled down; at a hit of y_j the sum is coeff_j.

    A point hits its nearest support node y_j where 1/(x - y_j) overflows,
    at y_j or a subnormal distance from it.  A sum that is not finite at any
    other point overflowed from finite terms: it is added again from the
    coefficients scaled by 2^-``_SCALED_SHIFT``, which keeps every term and
    every sum of fewer than 2^62 terms finite for coefficients of modulus up
    to 2, as every form's are, and the block holds it times
    2^-``_SCALED_SHIFT``.  A coefficient that the scaling leaves subnormal
    is rounded by at most 2^-1075, which moves its term by less than 2^-51,
    far below the rounding of the terms whose sum overflowed; the point's
    finite sums keep their plain bits.

    ``coeff`` is one coefficient vector, or a (k, m) stack of them sharing
    the reciprocals; a block's sums then have shape (k, points).  The sums
    add the nodes in order in 2k planar real rows, Re c_0, Im c_0, Re c_1,
    ..., and are copied into complex values once per block.  Each block
    reuses the buffers of the last, so a caller finishes a block before it
    asks for the next.
    """
    stack = coeff.reshape(-1, support.size)
    k = len(stack)
    # per node, the real column (Re c_0j, Im c_0j, Re c_1j, ...)
    cols = np.ascontiguousarray(stack.T, dtype=complex).view(float).reshape(-1, 2 * k, 1)
    # blocks of nearly equal length: NumPy runs a broadcast multiply of four
    # rows over at most a third of its 8192-element buffer (2730 points)
    # through its buffered path, at several times the cost per point, and a
    # short last block would pay that
    blocks = -(-xv.size // BLOCK_POINTS)
    size = -(-xv.size // max(blocks, 1))
    # buffers reused by every block, each block's (2k, n) rows contiguous
    # in them; fresh ones leave more memory resident
    inv = np.empty(size)
    planes = np.empty(4 * k * size)
    none = np.empty(0, dtype=np.intp)
    for b in range(blocks):
        start = b * xv.size // blocks
        x = xv[start:(b + 1) * xv.size // blocks]
        n = len(x)
        rows, term = planes[:4 * k * n].reshape(2, 2 * k, n)
        # the complex sums take the term rows' place once the terms are added
        out = term.reshape(k, 2 * n).view(complex)
        hits = node = scaled = shift = none
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _add_terms(cols, support, x, rows, term, inv[:n])
            out.real = rows[0::2]
            out.imag = rows[1::2]
            # a finite total of the rows rules out any non-finite sum; a total
            # that overflows from finite parts rules out none
            if not math.isfinite(np.add.reduce(rows, axis=None)):
                bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
                near = np.argmin(np.abs(x[bad, None] - support), axis=1)
                hit = ~np.isfinite(1.0 / (x[bad] - support[near]))
                hits, node, scaled = bad[hit], near[hit], bad[~hit]
                out[:, hits] = stack[:, node]
                if scaled.size:  # at most a block of points: one block of finite sums
                    sums = out[:, scaled]
                    shift = np.where(np.isfinite(sums), 0, _SCALED_SHIFT)
                    out[:, scaled] = np.where(shift, next(_partial_fraction(
                        _ldexp(stack, -_SCALED_SHIFT), support, x[scaled]))[1], sums)
                    shift = shift.reshape(coeff.shape[:-1] + (scaled.size,))
        yield start, out.reshape(coeff.shape[:-1] + (n,)), hits, node, scaled, shift


def _add_terms(cols, y, x, out, term, inv):
    """Writes to ``out`` the sums over the nodes y_j of cols[j] / (x - y_j),
    adding the terms in node order to sums that start at +0.

    ``cols`` is (n, rows, 1) and real, ``term`` holds one term and ``inv``
    one node's reciprocals.  A complex coefficient enters as its two parts
    in two rows: complex addition works part by part, and c * (r + 0i) with
    r = 1/(x - y_j) has the bits of (Re c * r, Im c * r) up to the sign of a
    zero, which a sum that starts at +0 erases: no such sum is -0.
    """
    out.fill(0.0)
    for col, yj in zip(cols, y):
        # col * (1/(x - y_j)): one real broadcast multiply per term
        np.subtract(x, yj, out=inv)
        np.divide(1.0, inv, out=inv)
        np.multiply(col, inv, out=term)
        out += term


def _prepare(x):
    """The points as a flat float array, and the shape of x."""
    xv = number_array(x, "evaluation points")
    if not np.all(np.isfinite(xv)):
        raise InvalidInputError("evaluation points must be finite")
    return xv.ravel(), xv.shape


def _finish(out, shape):
    """Values at the flat points in the shape of x; a complex for a scalar."""
    return complex(out[0]) if shape == () else out.reshape(shape)


def denominator_values(x, blocks):
    """d at the points x in the shape of x.  ``blocks(xv)`` yields, per block
    of the flat points xv, its first index and d there, and may yield more
    after them, as ``_partial_fraction`` does, whose last two items are the
    positions where d may be scaled and the power of two by which it is
    scaled down there: d there is scaled back, to inf in a part that
    overflows."""
    xv, shape = _prepare(x)
    out = np.empty(xv.size, dtype=complex)
    for start, d, *more in blocks(xv):
        block = out[start:start + len(d)]
        block[:] = d
        if more and more[-2].size:
            scaled, shift = more[-2:]
            with np.errstate(over="ignore"):
                block[scaled] = _ldexp(d[scaled], shift)
    return _finish(out, shape)


def quotient_values(x, blocks, hit_values=None):
    """n/d at the points x in the shape of x, from the blocks that
    ``blocks`` yields as for ``denominator_values``: per block d alone, for
    the Cayley form conj(d)/d, or the rows (d, n) with the positions that hit
    a support node and the nodes they hit, a hit of y_j reading
    ``hit_values[j]`` if given, and the positions where d or n is scaled
    with the powers of two by which they are scaled down, by which n/d is
    scaled back.  conj(d)/d needs no scaling back.  The first zero d in grid
    order raises PoleEvaluationError, at a support hit as elsewhere."""
    xv, shape = _prepare(x)
    out = np.empty(xv.size, dtype=complex)
    for start, sums, *more in blocks(xv):
        d, n = (sums, None) if sums.ndim == 1 else sums
        if not d.all():
            raise PoleEvaluationError(float(xv[start + np.argmax(d == 0.0)]))
        block = _divide(n, d, out[start:start + len(d)])
        if n is not None and more[2].size:
            scaled, shift = more[2:]
            with np.errstate(over="ignore"):
                block[scaled] = _ldexp(block[scaled], shift[1] - shift[0])
        if hit_values is not None:
            block[more[0]] = hit_values[more[1]]
    return _finish(out, shape)


def _divide(n, d, out=None):
    """n/d, written to the contiguous ``out`` if given; n None stands for
    conj(d).  NumPy's complex division scales by the reciprocal of
    d_r + d_i (d_i / d_r), d_r the larger part in modulus, a sum of at most
    twice that part.  A subnormal d overflows the quotient, and a part of d
    from ``_DIVIDE_LIMIT`` = 2^1021 on leaves the reciprocal subnormal, or 0
    once the sum overflows, so that the quotient loses its bits or reads 0.
    There, and only there, n and d are divided again scaled by 2^-e, e the
    exponent of max(|Re d|, |Im d|): the quotient is scale-free, and every
    other quotient keeps its bits."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.divide(np.conjugate(d, out=out) if n is None else n, d, out=out)
        parts = d.view(float)
        # a finite total of the quotient's parts rules out a non-finite one
        if not (math.isfinite(np.add.reduce(out.view(float)))
                and -_DIVIDE_LIMIT < np.minimum.reduce(parts, initial=0.0)
                and np.maximum.reduce(parts, initial=0.0) < _DIVIDE_LIMIT):
            top = np.maximum(np.abs(d.real), np.abs(d.imag))
            bad = ~np.isfinite(out) | (top >= _DIVIDE_LIMIT)
            e = -np.frexp(top[bad])[1]
            db = _ldexp(d[bad], e)
            out[bad] = (np.conjugate(db) if n is None else _ldexp(n[bad], e)) / db
    return out


def node_quotient(C, alpha, beta):
    """(C alpha) / (C beta) for a Cauchy-type matrix C, inf where C beta = 0:
    the approximant's values at the test nodes during a fit.  alpha None
    stands for conj(beta), a modified fit's Cayley form, whose values take
    one product: for a complex C whose imaginary parts are all +0, as a
    fit's complex copy of its real Cauchy block is, each term of C conj(beta)
    is the exact conjugate of the same term of C beta, rounded alike, so
    C conj(beta) is conj(C beta) bit for bit."""
    den = C @ beta
    r = _divide(None if alpha is None else C @ alpha, den)
    if not den.all():
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
        vectors = [np.ascontiguousarray(number_array(getattr(self, n), "coefficients", complex))
                   for n in self.COEFFICIENTS]
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
    """Evaluate r = n/d; at a support node y_j returns f_j = exp(i y_j), or
    raises PoleEvaluationError there if w_j = 0."""
    f, w = r.values, r.coefficients  # f formed once: alpha is f w
    return quotient_values(x, partial(_partial_fraction, np.stack([w, f * w]), r.support), f)


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
    return quotient_values(x, partial(_partial_fraction, r.coefficients, r.support))


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
    return quotient_values(x, partial(_partial_fraction, np.stack([r.beta, r.alpha]), r.support))
