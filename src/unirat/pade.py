"""Diagonal Pade approximant of exp(ix).

For e^z the degree-k diagonal Pade numerator is p(z) = sum_j c_j z^j with
c_j = (2k-j)! k! / ((2k)! j! (k-j)!), and the denominator is p(-z).  At
z = ix with real x the denominator value is the conjugate of the numerator
value (real coefficients), so the quotient has unit modulus.  Horner's rule
runs over blocks of ``BLOCK_POINTS`` points in the result itself, and each
block is finished there (p/conj(p), or conj(p)), so beside the result only
per-block buffers are held.
"""

from dataclasses import dataclass, field

import numpy as np

from .barycentric import BLOCK_POINTS, _finish, _prepare, is_count
from .errors import InvalidInputError, PoleEvaluationError

#: Largest supported degree; the coefficient recurrence stays in range here.
MAX_DEGREE = 85


def pade_coefficients(k):
    """Numerator coefficients c_0..c_k via the stable ratio recurrence
    c_{j+1}/c_j = (k-j) / ((2k-j)(j+1))."""
    if not is_count(k) or k < 0:
        raise InvalidInputError("degree must be a nonnegative integer")
    if k > MAX_DEGREE:
        raise InvalidInputError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    c = np.empty(k + 1)
    c[0] = 1.0
    for j in range(k):
        c[j + 1] = c[j] * (k - j) / ((2 * k - j) * (j + 1))
    return c


@dataclass(frozen=True)
class PadeApproximant:
    """Degree-k diagonal Pade approximant of exp(ix), evaluated on the real
    axis as p(ix) / conj(p(ix))."""

    COEFFICIENTS = ("coefficients",)  # scales the pole scan's threshold

    degree: int
    coefficients: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", pade_coefficients(self.degree))

    def _numerator(self, xv, out):
        """Yields, per block of ``BLOCK_POINTS`` flat points xv, the block's
        first index and p(ix) there, computed by Horner's rule in place in
        the block's slice of ``out``."""
        for start in range(0, xv.size, BLOCK_POINTS):
            q = out[start:start + BLOCK_POINTS]
            z = 1j * xv[start:start + BLOCK_POINTS]
            q[...] = self.coefficients[-1]
            for c in self.coefficients[-2::-1]:
                q *= z
                q += c
            yield start, q

    def eval(self, x):
        xv, shape = _prepare(x)
        out = np.empty(xv.size, dtype=complex)
        conj = np.empty(min(BLOCK_POINTS, xv.size), dtype=complex)
        for start, p in self._numerator(xv, out):
            zero = p == 0.0
            if zero.any():
                raise PoleEvaluationError(float(xv[start + np.argmax(zero)]))
            np.divide(p, np.conjugate(p, out=conj[:len(p)]), out=p)
        return _finish(out, shape)

    def denominator(self, x):
        xv, shape = _prepare(x)
        out = np.empty(xv.size, dtype=complex)
        for _, p in self._numerator(xv, out):
            np.conjugate(p, out=p)
        return _finish(out, shape)
