"""Dense singular value decomposition kernel.

One one-sided Jacobi iteration factors real and complex matrices; it keeps
good relative accuracy for the small singular values that carry the
approximant coefficients.  The sweeps rotate a square triangular QR factor
(Drmač & Veselić, SIMAX 29, 2008), R of A = QR for tall A and R^H of A^H = QR
for wide A, and the right vectors are then applied to A itself.  Each sweep visits every column pair once in round-robin order
(Brent & Luk, SIAM J. Sci. Stat. Comput. 6, 1985), whose rounds of disjoint
pairs are rotated by one set of array operations each.  A complex pair is
rotated by the Hermitian 2 x 2 rotation that takes out the phase of its
inner product, so complex input needs no real embedding.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

EPS = float(np.finfo(float).eps)

#: Default cap on Jacobi sweeps; override with the UNIRAT_SWEEP_CAP env var.
DEFAULT_SWEEP_CAP = 60


def sweep_cap():
    """UNIRAT_SWEEP_CAP, a non-negative integer, or DEFAULT_SWEEP_CAP if unset.
    At 0 no sweeps run, so only already orthogonal columns converge."""
    raw = os.environ.get("UNIRAT_SWEEP_CAP", str(DEFAULT_SWEEP_CAP))
    if not raw.strip().isdecimal():
        raise InvalidInputError(
            f"UNIRAT_SWEEP_CAP must be a non-negative integer, got {raw!r}"
        )
    return int(raw)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A V = U diag(s)``.

    ``singular_values`` has one entry per column of A, in descending order
    (for a matrix with fewer rows than columns the trailing values are the
    numerically zero ones).  ``right_vectors`` is the square cols x cols
    basis; ``left_vectors`` holds min(rows, cols) orthonormal columns.
    ``sweeps`` and ``rotations`` count the Jacobi sweeps run and the column
    pair rotations applied.
    """

    singular_values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    sweeps: int
    rotations: int


@functools.lru_cache(maxsize=128)
def _round_robin(m):
    """Rounds of disjoint pairs that together cover every pair of m columns.

    Each round is ``(index, half)``: column ``index[i]`` pairs with column
    ``index[half + i]``.  The arrays are shared between calls, so read-only.
    """
    ring = list(range(m + m % 2))  # an odd count adds a bye, column m
    rounds = []
    for _ in range(len(ring) - 1):
        pairs = [(a, b) for a, b in zip(ring, reversed(ring)) if a < b < m]
        if pairs:
            index = np.array([a for a, _ in pairs] + [b for _, b in pairs])
            index.setflags(write=False)
            rounds.append((index, len(pairs)))
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return tuple(rounds)


def _phase(z):
    """z / |z| for nonzero z.

    Complex z is first scaled by an exact power of two: for subnormal z,
    |z| is too coarse for the quotient to have unit modulus.
    """
    if not np.iscomplexobj(z):
        return np.sign(z)
    _, e = np.frexp(np.maximum(np.abs(z.real), np.abs(z.imag)))
    z = _ldexp(z, -e)
    return z / np.abs(z)


def _ldexp(z, e):
    """z * 2**e, exact unless the result leaves the normal range."""
    if np.iscomplexobj(z):
        return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)
    return np.ldexp(z, e)


def _jacobi_orthogonalize(R, cap):
    """One-sided Jacobi sweeps on the columns of R, at most ``cap`` of them.

    Returns ``(V, sweeps, rotations)``: the accumulated unitary V, so that
    R V has orthogonal columns, the number of sweeps run and the number of
    pair rotations applied.
    """
    k, m = R.shape
    # row j holds column j of R and then column j of V, so one gather and one
    # scatter per round move a column pair together with its right vectors
    S = np.hstack([R.T, np.eye(m, dtype=R.dtype)])
    rotations = 0
    for sweep in range(1, cap + 1):
        rotated = 0
        for index, half in _round_robin(m):
            P = S[index]
            C = P[:, :k]
            norms = np.einsum("ij,ij->i", C.conj(), C).real
            app, aqq = norms[:half], norms[half:]
            apq = np.einsum("ij,ij->i", C[:half].conj(), C[half:])
            a = np.abs(apq)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                zeta = (aqq - app) / (2.0 * a)
            # a pair at the threshold (apq == 0 included) is orthogonal to
            # roundoff; a non-finite zeta means the rotation angle is below
            # representable resolution
            active = (a > EPS * np.sqrt(app * aqq)) & np.isfinite(zeta)
            count = int(np.count_nonzero(active))
            if not count:
                continue
            rotated += count
            z = np.abs(zeta)
            with np.errstate(over="ignore", divide="ignore"):
                t = np.where(z > 1e150, 0.5 / z, 1.0 / (z + np.hypot(1.0, zeta)))
            t = np.where(active, np.copysign(t, zeta), 0.0)  # t = 0: identity
            cs = 1.0 / np.hypot(1.0, t)
            sn = cs * t * _phase(np.where(active, apq, 1.0))
            X, Y = P[:half], P[half:]
            S[index[:half]] = cs[:, None] * X - sn.conj()[:, None] * Y
            S[index[half:]] = sn[:, None] * X + cs[:, None] * Y
        rotations += rotated
        if not rotated:
            return S[:, k:].T, sweep, rotations
    # the cap was reached; accept the result if the last sweep actually
    # drove the off-diagonal Gram entries to roundoff level
    C = S[:, :k]
    off = np.abs(C.conj() @ C.T)
    np.fill_diagonal(off, 0.0)
    norms = np.linalg.norm(C, axis=1)
    scale = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        residual = float(np.max(np.where(scale > 0, off / scale, 0.0)))
    if residual > 8.0 * EPS:
        raise NumericalFailureError(
            f"Jacobi SVD did not converge within {cap} sweeps", residual
        )
    return S[:, k:].T, cap, rotations


def _complete_basis(U, start, n):
    """Fill U[:, start:] with orthonormal columns via Gram-Schmidt from e_i."""
    col = start
    for i in range(n):
        if col == U.shape[1]:
            return
        v = np.zeros(n, dtype=U.dtype)
        v[i] = 1.0
        for _ in range(2):  # twice is enough
            v = v - U[:, :col] @ (U[:, :col].conj().T @ v)
        nv = np.linalg.norm(v)
        # the squared residuals of the unused e_i sum to at least
        # n - col - 1/4, so one of them clears this bound
        if nv >= 0.5 / np.sqrt(n):
            U[:, col] = v / nv
            col += 1
    if col < U.shape[1]:
        raise NumericalFailureError("failed to complete orthonormal basis", 0.0)


def _apply_sign_convention(V, U):
    """Make the largest-magnitude entry of each right singular vector
    real-nonnegative, adjusting U consistently."""
    top = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    mag = np.abs(top)
    phase = np.conj(top) / np.where(mag > 0.0, mag, 1.0)
    phase[mag == 0.0] = 1.0
    V *= phase
    U *= phase[: U.shape[1]]


def _svd(A, dtype):
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix contains non-finite entries")
    n, m = A.shape
    cap = sweep_cap()
    # Gram entries overflow above ~1e154 and lose their precision below
    # ~1e-154, so a matrix far out of range is brought near 1 by an exact
    # power of two; one in range is left untouched
    _, e = np.frexp(np.max(np.abs(A)))
    shift = int(e) if abs(e) > 256 else 0
    if shift:
        A = _ldexp(A, -shift)
    if n >= m:
        V, sweeps, rotations = _jacobi_orthogonalize(np.linalg.qr(A, mode="r"), cap)
    else:
        # A = [R^H 0] Q^H from A^H = QR: rotating the square R^H keeps the
        # null space of A, Q's trailing columns, out of the sweeps
        Q, R = np.linalg.qr(A.conj().T, mode="complete")
        W, sweeps, rotations = _jacobi_orthogonalize(R[:n].conj().T, cap)
        V = np.hstack([Q[:, :n] @ W, Q[:, n:]])
    # rotations let the norms of V's columns drift by a few ulps; normalise
    # so that each reported singular value belongs to a unit vector
    V = V / np.linalg.norm(V, axis=0)

    # re-evaluate A V from the original matrix so the reported singular
    # values are exactly the norms achieved by the returned right vectors
    M = A @ V
    norms = np.linalg.norm(M, axis=0)
    order = np.argsort(-norms, kind="stable")
    sigma, V, M = norms[order], V[:, order], M[:, order]

    k = min(n, m)
    U = np.zeros((n, k), dtype=dtype)
    filled = int(np.count_nonzero(sigma[:k] > n * EPS * sigma[0]))
    for j in range(filled):
        u = M[:, j] - U[:, :j] @ (U[:, :j].conj().T @ M[:, j])
        U[:, j] = u / np.linalg.norm(u)
    _complete_basis(U, filled, n)
    _apply_sign_convention(V, U)
    return SvdResult(singular_values=np.ldexp(sigma, shift), right_vectors=V,
                     left_vectors=U, sweeps=sweeps, rotations=rotations)


def svd_real(A):
    """Thin SVD of a real matrix via one-sided Jacobi."""
    return _svd(A, float)


def svd_complex(A):
    """Thin SVD of a complex matrix via one-sided Jacobi."""
    return _svd(A, complex)
