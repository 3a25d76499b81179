"""Diagonal Pade approximant of exp(ix).

For e^z the degree-k diagonal Pade numerator is p(z) = sum_j c_j z^j with
c_j = (2k-j)! k! / ((2k)! j! (k-j)!), and the denominator is p(-z).  The
coefficients are real, so on the real axis the denominator is
q(x) = p(-ix) = conj(p(ix)) and r = p(ix)/p(-ix) = conj(q)/q: the Cayley form
of q, which has unit modulus by construction, as the barycentric Cayley form
conj(xi)/xi does.  Padé evaluates through the same block writers
(``barycentric.quotient_values`` and ``denominator_values``); it supplies q
by Horner's rule over blocks of ``BLOCK_POINTS`` points in one reused
buffer, so beside the result only that buffer is held.

Horner's q overflows once |x|^k outgrows 1/c_k (degree 13 from |x| near
1.3e25, degree 85 from 6.3e5), and ``denominator`` returns it so.  Scaling q
by the real x^-k leaves conj(q)/q unchanged, so ``eval`` recomputes the
points whose q is not finite from x^-k q, by Horner in t = 1/x over the
coefficients c_j (-i)^j, and is of unit modulus on the whole real axis.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .barycentric import BLOCK_POINTS, denominator_values, is_count, quotient_values
from .errors import InvalidInputError

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
    axis as the Cayley form conj(q)/q of q = conj(p(ix)).

    ``eval`` and ``denominator`` are bound on this class, and ``eval`` does
    not go through ``eval_cayley``, because ``bench/tracing.py`` wraps them
    here to time Padé apart from the barycentric forms (its ``eval_cayley``
    counter reads a ``support`` that Padé lacks).
    """

    COEFFICIENTS = ("coefficients",)  # scales the pole scan's threshold

    degree: int
    coefficients: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", pade_coefficients(self.degree))

    def _denominators(self, xv):
        """Yields, per block of ``BLOCK_POINTS`` flat points xv, the block's
        first index and q = conj(p(ix)) there: Horner's rule on z = ix in one
        reused buffer, conjugated in place.  (Horner on z = -ix would give
        +0.0, not -0.0, for the imaginary part at x = 0.)"""
        buffer = np.empty(min(BLOCK_POINTS, xv.size), dtype=complex)
        for start in range(0, xv.size, BLOCK_POINTS):
            z = 1j * xv[start:start + BLOCK_POINTS]
            q = buffer[:len(z)]
            q[...] = self.coefficients[-1]
            with np.errstate(over="ignore", invalid="ignore"):
                for c in self.coefficients[-2::-1]:
                    q *= z
                    q += c
            yield start, np.conjugate(q, out=q)

    def _scaled_denominators(self, xv):
        """The blocks of ``_denominators``, each q that is not finite replaced
        by x^-k q = sum_j c_j (-i)^j t^(k-j), t = 1/x, by Horner's rule."""
        c = self.coefficients * np.array([1, -1j, -1, 1j])[np.arange(self.degree + 1) % 4]
        for start, q in self._denominators(xv):
            # finite parts of q may sum past the float range
            with np.errstate(over="ignore"):
                if not math.isfinite(np.add.reduce(q.view(float))):
                    bad = ~np.isfinite(q)
                    q[bad] = np.polyval(c, 1.0 / xv[start:start + len(q)][bad])
            yield start, q

    def eval(self, x):
        return quotient_values(x, self._scaled_denominators)

    def denominator(self, x):
        return denominator_values(x, self._denominators)
