"""Diagonal Pade approximant of exp(ix).

For e^z the degree-k diagonal Pade numerator is p(z) = sum_j c_j z^j with
c_j = (2k-j)! k! / ((2k)! j! (k-j)!), and the denominator is p(-z).  At
z = ix with real x the denominator value is the conjugate of the numerator
value (real coefficients), so the quotient has unit modulus.
"""

from dataclasses import dataclass, field

import numpy as np

from .barycentric import BLOCK_ELEMENTS
from .errors import InvalidInputError, PoleEvaluationError

#: Largest supported degree; the coefficient recurrence stays in range here.
MAX_DEGREE = 85


def pade_coefficients(k):
    """Numerator coefficients c_0..c_k via the stable ratio recurrence
    c_{j+1}/c_j = (k-j) / ((2k-j)(j+1))."""
    if k < 0:
        raise InvalidInputError("degree must be nonnegative")
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

    def _numerator(self, xv):
        """p(ix) by Horner's rule, in place over blocks of points that stay
        in cache."""
        flat = xv.reshape(-1)
        p = np.empty(flat.size, dtype=complex)
        for start in range(0, flat.size, BLOCK_ELEMENTS):
            q = p[start:start + BLOCK_ELEMENTS]
            z = 1j * flat[start:start + BLOCK_ELEMENTS]
            q[...] = self.coefficients[-1]
            for c in self.coefficients[-2::-1]:
                q *= z
                q += c
        return p.reshape(xv.shape)

    def eval(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        p = self._numerator(xv)
        if np.any(p == 0.0):
            raise PoleEvaluationError(float(xv[np.argmax(p == 0.0)]))
        out = np.conj(p)
        np.divide(p, out, out=out)
        return complex(out[0]) if scalar else out

    def denominator(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.conj(self._numerator(xv))
        return complex(d[0]) if scalar else d
