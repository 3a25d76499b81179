"""Dense singular value decomposition kernel.

One one-sided Jacobi iteration factors real and complex matrices; it keeps
good relative accuracy for the small singular values that carry the
approximant coefficients.  It follows the preconditioned Jacobi SVD of
Drmač & Veselić (SIMAX 29, 2008).  A LAPACK QR first reduces A to a square
triangular T: R of A = QR for tall A, R^H of A^H = QR for wide A.  Every R
that no Q goes with (``_r_factor``) comes from LAPACK's ``?geqrf`` run in
place on one Fortran-ordered copy of its matrix, which is left untouched.  A
Householder QR with column pivoting, T P = Q2 R2, and an LQ step,
R2^H = Q3 R3, then leave the lower-triangular R3^H, and the sweeps rotate
its columns.  The right vectors are V = P Q3 W, W the accumulated rotations,
and they are applied to A itself.  Each sweep visits every column pair once
in round-robin order (Brent & Luk, SIAM J. Sci. Stat. Comput. 6, 1985),
whose rounds of disjoint pairs are rotated by one set of array operations
each.  A round rotates only its active pairs, those not yet orthogonal to
roundoff: it computes the rotations over all its pairs, gathers the active
rows once, rotates them in place and scatters them back once, since its cost
is mostly its count of NumPy calls.  A complex pair is rotated by the
Hermitian 2 x 2 rotation that takes out the phase of its inner product, so
complex input needs no real embedding.  One pass over |A| rejects non-finite
input and sets the power-of-two shift.  The fits read only V and the
singular values, so the left vectors are built on first access, from a
Householder QR of A V.

The sweeps end after a sweep that left a pair unrotated, once one Gram
matrix of the rotated columns, with the bits of the rounds' inner products,
shows no active pair.

A fit step reads only a ``SmallestVector``: its smallest right vector,
sigma_min, a lower bound on sigma_{m-1} and a scale, whose ``degenerate``
rule says whether the vector is determined.  One call,
``smallest_right_vector``, solves every fit step, from one QR of a tall
A = QR.  It forms X = R^{-1} once, takes the dominant eigenvector of
Z = X X^H = (R^H R)^{-1} from one LAPACK Hermitian eigensolve and one
product with Z, and keeps the result only if its record, with
``gap_bound``'s lower bound on sigma_{m-1}, net of that bound's own
rounding, is not degenerate.  The eigensolve needs no start vector.  The
Jacobi kernel is the fallback: a step it does not certify and a wide step
run it to full convergence as ``svd_real``/``svd_complex`` run it, so such
a record is theirs, ``smallest()``, bit for bit.  A modified Lawson fit
factors its first system once (``WeightedQR``), and solves each later
step's, its rows weighted, from a triangle that one Gram product, one
Cholesky and one triangular product give, under a certificate net of their
rounding; a step that certificate does not hold for is factored on its own.

A warm step's cost is its LAPACK work, not NumPy's wrappers around it.
Its QRs, R^{-1} and eigensolve are made by LAPACK routines called as
directly as NumPy allows (``?geqrf`` in place through ``lapack_lite``, the
one routine taken from it, ``?gesv`` against the identity,
``?syevd``/``?heevd`` and the route's ``?potrf`` through the gufuncs that
``np.linalg.inv``, ``np.linalg.eigh`` and ``np.linalg.cholesky`` wrap), its
triangles by the ``np.where`` that
``np.triu`` evaluates, its norms by ``np.linalg.norm``'s own formula and
its phase from its one largest entry; each with the bits of the NumPy call
it replaces.  The complement of v that ``gap_bound`` reads is not formed:
one Householder reflector, made by ``_reflector`` as the pivoted QR makes
its own, enters R W as a rank-one update.  The step runs under one
``np.errstate``, and ``gap_bound``, which a caller may also call alone,
under its own.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg, lapack_lite

from .errors import InvalidInputError, NumericalFailureError

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)

#: Cap on Jacobi sweeps; an SVD still off orthogonal after it raises
#: NumericalFailureError.
SWEEP_CAP = 60

#: Workspace entries per column that ``?geqrf``'s workspace query asks for:
#: its block size, which LAPACK's ``ilaenv`` sets to 32.  A smaller
#: workspace would shrink the blocks, and change the bits, of a QR of more
#: than 128 columns, where the blocked path starts.
_GEQRF_BLOCK = 32


def number_array(x, name, dtype=float):
    """x as an array of ``dtype``, float or complex, x itself where it is
    one: the one cast of outside numbers.  Input that the cast would change
    in kind raises InvalidInputError: complex input to float, whose plain
    cast would truncate it to its real part, and to either dtype anything
    but numbers (strings, which a plain cast would parse, objects such as
    integers beyond float range, ragged lists)."""
    try:
        return np.asarray(x).astype(dtype, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        kind = "real numbers" if dtype is float else "numbers"
        raise InvalidInputError(f"{name} must be {kind}: {exc}") from None


@dataclass(frozen=True, eq=False)
class SmallestVector:
    """How a fit step's system was solved: its unit smallest right vector,
    sigma_min, a lower bound on sigma_{m-1} and a bound on sigma_max.

    The Jacobi kernel (``SvdResult.smallest``) records sigma_m, sigma_{m-1}
    (inf for one column) and sigma_max, with its ``sweeps`` and
    ``rotations``; the eigensolve (``_eigensolve``) records ||A v|| >=
    sigma_m and ``gap_bound``'s l <= sigma_{m-1} and ||R||_F >= sigma_max,
    to which ``WeightedQR.solve`` applies the route's terms on its triangle.
    ``smallest_right_vector`` returns a warm record only where it is not
    ``degenerate``, and the kernel's otherwise.  A kernel record counts
    at least one sweep, a one-column run's too, and a warm record none, so
    ``sweeps == 0`` marks the warm records; ``route`` is True on the
    route's.
    """

    vector: np.ndarray
    sigma_min: float
    lower: float
    scale: float
    sweeps: int = 0
    rotations: int = 0
    route: bool = False

    @property
    def degenerate(self):
        """Whether ``lower - sigma_min`` fails to exceed 8 eps ``scale``, so
        that the vector is not determined; a NaN counts as degenerate."""
        return not self.lower - self.sigma_min > 8.0 * EPS * self.scale

    @property
    def wedin(self):
        """eps scale / (lower - sigma_min), which bounds the angle by which
        rounding of order eps ||A|| moves the vector (Wedin); inf where
        degenerate."""
        return math.inf if self.degenerate else EPS * self.scale / (self.lower - self.sigma_min)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A V = U diag(s)``.

    ``singular_values`` has one entry per column of A, in descending order
    (for a matrix with fewer rows than columns the trailing values are the
    numerically zero ones).  ``right_vectors`` is the square cols x cols
    basis; ``left_vectors`` holds min(rows, cols) orthonormal columns, built
    on first access from a QR of A V: the result keeps ``(A V, order,
    phase)``, A V unsorted, and sorts and phases its columns as V's only
    then.  ``sweeps`` and ``rotations`` count the Jacobi sweeps run and the
    column pair rotations applied.
    """

    singular_values: np.ndarray
    right_vectors: np.ndarray
    sweeps: int
    rotations: int
    _av: tuple = field(repr=False, compare=False)

    def smallest(self):
        """The kernel's ``SmallestVector``: the last right vector, sigma_m,
        sigma_{m-1} (inf for one column) and sigma_max, with the sweeps and
        rotations run."""
        sig = self.singular_values
        return SmallestVector(self.right_vectors[:, -1], float(sig[-1]),
                              float(sig[-2]) if sig.size > 1 else math.inf, float(sig[0]),
                              sweeps=self.sweeps, rotations=self.rotations)

    @functools.cached_property
    def left_vectors(self):
        """The Q of a Householder QR of A V, each column turned to the phase
        of its r_jj, so column j is A v_j / sigma_j wherever sigma_j is well
        above the noise.  Householder Q is orthonormal whatever the rank."""
        M, order, phase = self._av
        Q, R = np.linalg.qr(M[:, order] * phase)
        return Q * _phase(np.diagonal(R))


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
    """z / |z|, and 1 where z = 0.

    Complex z is first scaled by an exact power of two: for subnormal z,
    |z| is too coarse for the quotient to have unit modulus.
    """
    if not np.iscomplexobj(z):
        return np.where(z == 0.0, 1.0, np.sign(z))
    _, e = np.frexp(np.maximum(np.abs(z.real), np.abs(z.imag)))
    z = _ldexp(z, -e)
    with np.errstate(invalid="ignore"):
        return np.where(z == 0.0, 1.0, z / np.abs(z))


def _vector_phase(V):
    """The unit factors that make the largest-magnitude entry of each column
    of V real and nonnegative: the phase of every right vector returned."""
    return _phase(np.conj(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]))


def _entry_phase(v):
    """``_vector_phase(v[:, None])`` for a finite vector v, with its bits,
    from the one largest-magnitude entry, the first of equals, as a
    one-element array.

    The entry's phase is formed in Python floats by ``_phase``'s steps: the
    power-of-two scaling, the modulus from NumPy's complex abs (CPython's
    ``abs`` of a complex rounds differently) and NumPy's complex division by
    a real, whose ``rat`` and ``scl`` terms fix the signs of zero parts."""
    i = int(np.abs(v).argmax())
    if v.dtype.kind != "c":
        return np.array([-1.0 if v[i] < 0.0 else 1.0])
    z = complex(v[i])
    re, im = z.real, -z.imag
    if re == 0.0 and im == 0.0:
        return np.array([1.0 + 0.0j])
    e = math.frexp(max(abs(re), abs(im)))[1]
    re, im = math.ldexp(re, -e), math.ldexp(im, -e)
    r = float(np.abs(np.array([complex(re, im)]))[0])
    rat = 0.0 / r
    scl = 1.0 / (r + 0.0 * rat)
    return np.array([complex((re + im * rat) * scl, (im - re * rat) * scl)])


def _r_factor(A):
    """The R of A = QR for a tall or square A, real or complex, with the bits
    of the R that ``np.linalg.qr`` returns alone.

    A is copied once, in the Fortran order LAPACK reads, and ``?geqrf`` runs
    in place on the copy through NumPy's own binding; A itself is not
    written.  Its workspace holds ``_GEQRF_BLOCK`` entries per column, what
    a workspace query returns, so ``?geqrf`` keeps the block size, and with
    it the bits, that ``np.linalg.qr``'s query gives it, without the query.
    ``np.linalg.qr`` makes two more copies on every call, whose pages glibc
    maps and returns each time, so each of its calls touches fresh zeroed
    pages.
    """
    n, m = A.shape
    dtype = complex if np.iscomplexobj(A) else float
    geqrf = lapack_lite.zgeqrf if dtype is complex else lapack_lite.dgeqrf
    B = np.array(A.T, dtype=dtype, order="C")  # A^T in C order is A in Fortran order
    lwork = _GEQRF_BLOCK * m
    info = geqrf(n, m, B, n, np.empty(m, dtype=dtype), np.empty(lwork, dtype=dtype),
                 lwork, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"LAPACK geqrf failed with info = {info}")
    return _triu(B[:, :m].T)


@functools.lru_cache(maxsize=128)
def _strict_lower(m):
    """The mask of the m x m strict lower triangle, ``np.tri(m, k=-1)``,
    shared between calls, so read-only."""
    mask = np.tri(m, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _triu(T):
    """``np.triu(T)`` for a square T, by the ``np.where`` that np.triu
    evaluates, with the bits and layout of its result, but with its mask
    made once per size."""
    return np.where(_strict_lower(T.shape[0]), 0.0, T)


def _triangular_inverse(T):
    """T^{-1} for a square upper triangle T, float or complex, with the bits
    of ``np.linalg.inv(T)``: one LAPACK ``?gesv`` against the identity, as
    ``np.linalg.solve(T, I)`` runs it (its LU leaves an upper triangle
    unpivoted, so one back substitution per column), by the gufunc that
    ``np.linalg.inv`` wraps, with its signature but without its wrapper;
    None where T is singular, which the gufunc reports by filling its result
    with NaN and raising the invalid flag, or the inverse is not finite.
    The callers ignore floating-point warnings around it."""
    X = _umath_linalg.inv(T, signature="D->D" if T.dtype.kind == "c" else "d->d")
    return X if np.isfinite(X).all() else None


def _norm(x):
    """``np.linalg.norm(x)`` for ord=None, by its own formula and with its
    bits: sqrt(x . x) over x raveled in memory order, Re . Re + Im . Im for
    complex x, without its checks of x.  The result is a NumPy scalar, so a
    zero or overflowed norm divides to inf or 0 under ``np.errstate``."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def _ldexp(z, e):
    """z * 2**e, exact unless the result leaves the normal range; signed
    zeros keep their sign."""
    if np.iscomplexobj(z):
        out = np.ldexp(z.real, e).astype(complex)
        out.imag = np.ldexp(z.imag, e)
        return out
    return np.ldexp(z, e)


def _gram(S, k):
    """|G| and diag G, G the Gram matrix of the rotated columns ``S[:, :k]``."""
    C = S[:, :k]
    G = np.einsum("ik,jk->ij", C.conj(), C)
    return np.abs(G), np.diagonal(G).real


def _converged(S, k):
    """Whether no pair is active under the rounds' test, on Gram entries with
    the bits of the rounds' einsums, so the next sweep would rotate nothing."""
    a, norms = _gram(S, k)
    zeta = (norms - norms[:, None]) / (2.0 * a)
    active = (a > EPS * np.sqrt(norms[:, None] * norms)) & np.isfinite(zeta)
    np.fill_diagonal(active, False)
    return not active.any()


def _jacobi_orthogonalize(R):
    """One-sided Jacobi sweeps on the columns of R, at most SWEEP_CAP of them.

    Returns ``(V, sweeps, rotations)``: the accumulated unitary V, so that
    R V has orthogonal columns, the number of sweeps run and the number of
    pair rotations applied.
    """
    k, m = R.shape
    pairs = m * (m - 1) // 2
    # row j holds column j of R and then column j of V, so one gather and one
    # scatter per round move a column pair together with its right vectors
    S = np.hstack([R.T, np.eye(m, dtype=R.dtype)])
    rotations = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sweep in range(1, SWEEP_CAP + 1):
            rotated = 0
            for index, half in _round_robin(m):
                P = S[index]
                C = P[:, :k]
                Cc = C.conj()
                norms = np.einsum("ij,ij->i", Cc, C).real
                app, aqq = norms[:half], norms[half:]
                apq = np.einsum("ij,ij->i", Cc[:half], C[half:])
                a = np.abs(apq)
                zeta = (aqq - app) / (2.0 * a)
                # a pair at the threshold (apq == 0 included) is orthogonal to
                # roundoff; a non-finite zeta means the rotation angle is below
                # representable resolution
                ok = (a > EPS * np.sqrt(app * aqq)) & np.isfinite(zeta)
                active = ok.nonzero()[0]
                if not active.size:
                    continue
                rotated += active.size
                # t = 1/(|zeta| + hypot(1, zeta)) with both sides halved, which
                # is exact; unhalved, the sum overflows where 2|zeta| does, and
                # a t of 0 would leave an active pair unrotated in every sweep
                h = 0.5 * zeta
                t = np.copysign(0.5 / (np.abs(h) + np.hypot(0.5, h)), zeta)
                cs = 1.0 / np.hypot(1.0, t)
                # while a is normal, apq / a has the bits of _phase(apq), whose
                # power-of-two prescale is exact; a tiny a keeps the prescale
                normal = np.minimum.reduce(a, where=ok, initial=np.inf) >= 2.0**-960
                sn = cs * t * (apq / a if normal else _phase(apq))
                c, s = cs[:, None], sn[:, None]
                if active.size < half:
                    sel = np.concatenate((active, active + half))
                    P, index = P[sel], index[sel]
                    c, s = c[active], s[active]
                # rotate the gathered rows in place: X' = cX - conj(s) Y keeps
                # the bits of that expression, and Y' = cY + sX only swaps the
                # operands of its addition
                X, Y = P[:active.size], P[active.size:]
                u, v = s.conj() * Y, s * X
                X *= c
                X -= u
                Y *= c
                Y += v
                S[index] = P
            rotations += rotated
            # a sweep that rotated every pair is far from convergence
            if not rotated or rotated < pairs and _converged(S, k):
                return S[:, k:].T, sweep, rotations
        # the cap was reached; accept the result if the last sweep actually
        # drove the column inner products to roundoff level
        off, norms = _gram(S, k)
        np.fill_diagonal(off, 0.0)
        scale = np.outer(np.sqrt(norms), np.sqrt(norms))
        residual = float(np.max(np.where(scale > 0, off / scale, 0.0)))
    if residual > 8.0 * EPS:
        raise NumericalFailureError(
            f"Jacobi SVD did not converge within {SWEEP_CAP} sweeps", residual
        )
    return S[:, k:].T, SWEEP_CAP, rotations


def _reflector(x, alpha):
    """The Householder vector v = (x + s alpha e_1) / sqrt(alpha (alpha +
    |x_0|)) of x, alpha = ||x||, and s the phase of x_0: ||v||^2 = 2, and
    (I - v v^H) x = -s alpha e_1.  The pivoted QR passes the computed
    ||x||, at least 1e-162, and ``gap_bound`` 1 for its unit v.  A
    subnormal x_0 is too coarse for x_0 / |x_0| to have unit modulus; beside
    alpha it is negligible, and s = 1 serves."""
    mag = abs(x[0])
    v = x.copy()
    v[0] += alpha * (x[0] / mag if mag >= TINY else 1.0)
    v /= math.sqrt(alpha) * math.sqrt(alpha + mag)
    return v


def _pivoted_r(T):
    """``(R, p)`` with ``T[:, p] = Q R`` for a unitary Q, for square T.

    Householder QR with column pivoting (Businger & Golub, Numer. Math. 7,
    1965): step j moves the trailing column of largest norm to position j,
    so ``|r_jj|`` does not increase with j.  Q itself is not formed.  The
    steps end at a trailing block whose squared column norms are all zero,
    which leaves a block of entries below ~1e-162 as it is.
    """
    R = np.array(T)
    k = R.shape[1]
    p = np.arange(k)
    for j in range(k - 1):
        B = R[j:, j:]
        norms = np.einsum("ij,ij->j", B.conj(), B).real
        i = int(norms.argmax())
        if norms[i] == 0.0:
            break
        if i:
            R[:, [j, j + i]] = R[:, [j + i, j]]
            p[[j, j + i]] = p[[j + i, j]]
        v = _reflector(B[:, 0], math.sqrt(norms[i]))
        B -= np.outer(v, v.conj() @ B)
        B[1:, 0] = 0.0
    return R, p


def _preconditioned(T):
    """Jacobi sweeps on a square T after a pivoted QR and an LQ step.

    With ``T P = Q2 R2`` and ``R2^H = Q3 R3``, ``T P Q3 = Q2 R3^H``, so the
    right vectors of T are ``P Q3 W`` for the rotations W that orthogonalise
    the columns of R3^H.  Returns ``(V, sweeps, rotations)``.
    """
    R2, p = _pivoted_r(T)
    Q3, R3 = np.linalg.qr(R2.conj().T)
    W, sweeps, rotations = _jacobi_orthogonalize(R3.conj().T)
    V = np.empty_like(W)
    V[p] = Q3 @ W
    return V, sweeps, rotations


def check_matrix(A):
    """Reject an A that is not a nonempty 2-D matrix."""
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {A.shape}")


def _svd(A):
    """The thin SVD of a float or complex A: ``svd_real`` and
    ``svd_complex`` after their cast, and a fit step's fallback."""
    check_matrix(A)
    # NaN and inf propagate through the largest modulus, which also sets the
    # shift below
    amax = np.max(np.abs(A))
    if not np.isfinite(amax):
        raise InvalidInputError("matrix contains non-finite entries")
    n, m = A.shape
    # column inner products overflow above ~1e154 and lose their precision
    # below ~1e-154, so a matrix far out of range is brought near 1 by an
    # exact power of two; one in range is left untouched
    _, e = np.frexp(amax)
    shift = int(e) if abs(e) > 256 else 0
    if shift:
        A = _ldexp(A, -shift)
    if n >= m:
        V, sweeps, rotations = _preconditioned(_r_factor(A))
    else:
        # A = [R^H 0] Q^H from A^H = QR: rotating the square R^H keeps the
        # null space of A, Q's trailing columns, out of the sweeps
        Q, R = np.linalg.qr(A.conj().T, mode="complete")
        W, sweeps, rotations = _preconditioned(R[:n].conj().T)
        V = np.hstack([Q[:, :n] @ W, Q[:, n:]])
    # rotations let the norms of V's columns drift by a few ulps; normalise
    # so that each reported singular value belongs to a unit vector
    V = V / np.linalg.norm(V, axis=0)

    # re-evaluate A V from the original matrix so the reported singular
    # values are exactly the norms achieved by the returned right vectors
    M = A @ V
    norms = np.linalg.norm(M, axis=0)
    order = np.argsort(-norms, kind="stable")
    sigma, V = norms[order], V[:, order]

    # A V follows V's phases when the left vectors are built
    phase = _vector_phase(V)
    V *= phase
    return SvdResult(singular_values=np.ldexp(sigma, shift), right_vectors=V,
                     sweeps=sweeps, rotations=rotations, _av=(M, order, phase))


def svd_real(A):
    """Thin SVD of a real matrix via one-sided Jacobi; a complex matrix is
    rejected (``number_array``), not truncated to its real part."""
    return _svd(number_array(A, "matrix"))


def svd_complex(A):
    """Thin SVD of a complex matrix via one-sided Jacobi; a real matrix is
    cast to complex, and strings or objects are rejected (``number_array``)."""
    return _svd(number_array(A, "matrix", complex))


def gap_bound(R, v):
    """``(lower, ||R||_F)``: a lower bound on sigma_{m-1} of the m x m
    triangle R, for a unit v, l - 4 max(m, 4) eps ||R||_F, the rounding term
    derived below, and 0 where that is negative, where R' is singular or its
    inverse overflows, inf for one column; and R's norm, which a warm step's
    record reads as its scale, formed once.  It runs under its own
    ``np.errstate``, which ignores floating-point warnings.

    For W an orthonormal basis of v's complement and R' the triangle of a QR
    of R W, ``l = 1 / ||R'^{-1}||_F <= sigma_min(R W) <= sigma_{m-1}(R)``
    (interlacing).  W is the trailing columns of the reflector I - h h^H
    that takes v to a multiple of e_1, h = ``_reflector(v, 1)``, and is not
    formed: R W = R[:, 1:] - (R h) h[1:]^H, a rank-one update.  R' comes from
    ``_r_factor``, ``?geqrf`` in place on a copy of R W, and R'^{-1} from
    ``_triangular_inverse``, each with the bits of the NumPy call it stands
    for (``np.linalg.qr`` and ``np.linalg.solve``).
    No Gram matrix is formed: its rounding, eps sigma_max^2, would swamp
    sigma_{m-1}^2.

    The computed l exceeds sigma_{m-1}(R) by at most the sum of these terms,
    by Weyl's inequality, with u = eps / 2 and gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.), to
    first order and for real arithmetic:
    (1) interlacing holds for every W with orthonormal columns, so it may be
    read for the polar factor of the computed h's W = I[:, 1:] - h b^H,
    b = h[1:]: W^H W = I + (||h||^2 - 2) b b^H with ||b|| <= 1, so W lies
    within | ||h||^2 - 2 | / 2 of it.  h takes ||v|| as 1 for a v that is
    unit only to rounding, | ||v||^2 - 1 | <= gamma_{m+4} for v = x / ||x||,
    which moves ||h||^2 by at most as much, and h's own four roundings move
    it by at most 14 u: (m / 2 + 9) u ||R||_F;
    (2) R h rounds by gamma_m |R| |h|, its product with conj(b_j) and the
    subtraction by one u each, so the update rounds by at most
    gamma_{m+1} |R| |h| |b|^T + u |R W|, with ||h|| ||b|| <= sqrt(2):
    (sqrt(2) gamma_{m+1} + u) ||R||_F <= (3 m / 2 + 3) u ||R||_F;
    (3) R' is the exact triangle of R W + E with ||e_j|| <= gamma_{m(m-1)}
    ||(R W)_j|| (Theorem 19.4): gamma_{m(m-1)} ||R||_F;
    (4) ?gesv's LU of a triangle is exact, and each back substitution solves
    (R' + D_j) x_j = e_j with |D_j| <= gamma_m |R'| (Theorem 8.5), so for
    R' z = s y, s = sigma_min(R') and unit y, z,
    ||X y - z / s|| <= gamma_m ||R'||_F ||X||_F / s, whence
    1 / ||X||_F <= s + gamma_m ||R'||_F;
    (5) the norm and the quotient round l by gamma_{m^2}: gamma_{m^2} l.
    Terms (1), (2) and (4) sum to (3 m + 12) u ||R||_F.  Terms (3) and (5),
    at their worst-case constants, would take 225 eps ||R||_F at m = 15,
    where the figure fits' AAA steps have 745 to spare; rounding errors that
    are independent add like the square root of their count (Section 2.8),
    which leaves at most 2 m u ||R||_F for the two.  The bound subtracts
    4 max(m, 4) eps ||R||_F = 8 max(m, 4) u ||R||_F, at least the
    (5 m + 12) u ||R||_F of the five for every m >= 2, so it is not a
    worst-case bound; 4 m eps ||R||_F alone falls short of that at m = 2
    and 3.  Complex arithmetic raises each constant by a small factor
    (Section 3.6).  R's own rounding as the R of a system A, which the
    kernel's record shares, is A's backward error and is left out.
    """
    m = R.shape[1]
    with np.errstate(all="ignore"):
        scale = float(_norm(R))
        if m == 1:
            return math.inf, scale
        h = _reflector(v, 1.0)
        X = _triangular_inverse(_r_factor(R[:, 1:] - (R @ h)[:, None] * h[1:].conj()))
        ell = 0.0 if X is None else float(1.0 / _norm(X) - 4 * max(m, 4) * EPS * scale)
    return max(0.0, ell), scale


def _eigensolve(A, R):
    """The certified record of a tall A = QR from one Hermitian eigensolve;
    None where it is not certified.

    X = R^{-1}, formed by one LAPACK ``?gesv`` against the identity
    (``_triangular_inverse``), is scaled to ||X||_F = 1, and Z = X X^H is
    (R^H R)^{-1} so scaled: its eigenvector u of largest eigenvalue is R's,
    and A's, smallest right vector.  u comes from the gufunc behind
    ``np.linalg.eigh`` (LAPACK ``?syevd``/``?heevd`` on Z's lower triangle),
    called as ``_triangular_inverse`` calls ``inv``, and the vector is
    v = Z u / ||Z u||: the one product takes a further factor
    (sigma_m / sigma_{m-1})^2 off the eigensolver's error, which is about
    eps / (1 - (sigma_m / sigma_{m-1})^2).  Forming Z squares R's condition,
    but neither sigma_min nor the gap is read from it.  The result is
    certified by its ``SmallestVector(v, ||A v||, *gap_bound(R, v))`` not
    being ``degenerate``; ``gap_bound`` takes off its own rounding, and on
    the figure fits the gap then exceeds 685 eps ||R||_F.  The gap is
    bounded from R, not from X, whose rounding, eps sigma_max / sigma_min,
    would swamp sigma_{m-1}.  None also for a singular R, a non-finite X, or
    a non-finite u or v.  The norms are ``_norm``'s, with the bits of
    ``np.linalg.norm``, and every field of the record is formed under
    ``np.errstate`` and stored as a Python float, so that an overflowed
    sigma_min or scale makes the record degenerate, with no warning.  The
    vector is turned to the kernel's phase by ``_entry_phase``.  The record
    is R's own: the route (``WeightedQR``) takes its own terms off it.
    """
    with np.errstate(all="ignore"):
        X = _triangular_inverse(R)
        if X is None:
            return None
        X /= _norm(X)
        Z = X @ X.conj().T
        u = _umath_linalg.eigh_lo(Z, signature="D->dD" if Z.dtype.kind == "c" else "d->dd")[1]
        x = Z @ u[:, -1]
        norm = _norm(x)
        if not 0.0 < norm < np.inf:  # a NaN in u or x fails it too
            return None
        v = x / norm
        solve = SmallestVector(v * _entry_phase(v), float(_norm(A @ v)), *gap_bound(R, v))
    return None if solve.degenerate else solve


def _gamma(k):
    """gamma_k = k u / (1 - k u), u = eps / 2: Higham's bound on k
    successive roundings."""
    return k * EPS / (2.0 - k * EPS)


class WeightedQR:
    """One QR of a fit's first system, B0 = Q0 R0 for a tall real B0, from
    which the row-weighted systems A = D B0, D = diag(sqrt(mu)), of its later
    steps are solved without a QR of their own: the route.

    Q0 and R0 come from ``np.linalg.qr(B0)``, whose R has the bits and layout
    of ``_r_factor(B0)``, so the fit's first step reads R0 as its R.  For a
    later step, G = D Q0 = Q_G R_G, with R_G^T R_G = G^T G, gives
    A = Q_G (R_G R0): R = R_G R0 is a triangle of A, from one n x p Gram
    product (BLAS-3), one p x p Cholesky and one triangular product, where
    A's own unblocked ``?geqrf`` costs far more under two BLAS threads.  G
    stays well conditioned where A is not: kappa(G) <= 246 on the figure
    fits, kappa(A) ~ 1e12.  ``solve`` takes R's record from ``_eigensolve``
    and certifies it with ``gap_bound(R, v)`` net of the route's terms below,
    which it applies itself; ``||A v||`` is read from A itself, as on every
    warm step.  G and its Gram matrix are refilled in two buffers of the
    fit, and the squared row norms b, q and e of B0, Q0 and the residual
    B0 - Q0 R0 are kept, so that the terms that scale with the rows cost one
    dot with mu each.

    The terms, with u = eps / 2, gamma_k = k u / (1 - k u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed.), n x p the
    shape of A, ||.|| the Frobenius norm, to first order:
    (1) B0 = Q0 R0 + E exactly, and the computed residual rounds by at most
    gamma_{p+1} (|B0| + |Q0| |R0|), so ||D E|| <= sqrt(mu . e) +
    gamma_{p+1} (||D B0|| + ||G|| ||R0||), ||D B0|| = sqrt(mu . b) and
    ||G|| = sqrt(mu . q); A itself, formed as the fit forms it from d and
    the unweighted factors, is D B0 + F with |F| <= gamma_3 |A|: together
    h1 = sqrt(mu . e) + gamma_{p+4} (sqrt(mu . b) + ||G|| ||R0||);
    (2) the computed G is D Q0 + H with |H| <= u |G|, which moves G R0 by
    h2 = u ||G|| ||R0||.  So A = G R0 + K with ||K||_2 <= h = h1 + h2,
    and sigma_i(A) >= sigma_i(G R0) - h (Weyl);
    (3) the Gram matrix S = G^T G rounds by |dS| <= gamma_n |G|^T |G|
    (Section 3.5) and the Cholesky factor satisfies R_G^T R_G = S + dS + C,
    |C| <= gamma_{p+1} |R_G|^T |R_G| (Theorem 10.3), so that ||dS + C||_2
    <= delta = gamma_n ||G||^2 + gamma_{p+1} ||R_G||^2.  For every x,
    | ||R_G x||^2 - ||G x||^2 | <= delta ||x||^2 <= f ||G x||^2 with
    f = delta / sigma_min(G)^2, so sigma_i(G R0) >= sigma_i(R_G R0) /
    sqrt(1 + f) and sigma_i(G R0) <= sigma_i(R_G R0) / sqrt(1 - f)
    (min-max), as Yamamoto, Nakatsukasa, Yanagisawa & Fukaya (ETNA 44, 2015)
    bound CholeskyQR's factor.  sigma_min(G)^2 >= s^2 - delta for
    s = 1 / ||R_G^{-1}|| - gamma_p ||R_G||, with R_G^{-1} from
    ``_triangular_inverse`` (term (4) of ``gap_bound``), and the route
    refuses unless s^2 > 2 delta, so that f < 1;
    (4) R = fl(R_G R0) = R_G R0 + T with |T| <= gamma_p |R_G| |R0|, so
    sigma_i(R_G R0) >= sigma_i(R) - t, t = gamma_p || |R_G| |R0| ||.
    Hence sigma_{m-1}(A) >= (l - t) / sqrt(1 + f) - h, l the lower bound of
    ``gap_bound(R, v)``, the record's lower bound, and sigma_max(A) <=
    (||R|| + t) / sqrt(1 - f) + h, its scale.  The dots and norms that form
    the terms round them by a relative O(n u), which is of second order.
    On the 19 later steps of the figure ``lawson_mod`` fit, h and t reach at
    most 247 and 27 eps ||R||_F, and f moves the bound by less than 1e-3 eps
    ||R||_F; every step is certified, with at least 4 447 eps ||R||_F to
    spare.
    """

    def __init__(self, B):
        Q, self.R = np.linalg.qr(B)
        self.Q = np.asfortranarray(Q)
        self._G, self._S = np.empty_like(self.Q), np.empty((self.R.shape[0],) * 2)
        # the residual B0 - Q0 R0 is formed in G's buffer
        E = np.subtract(B, np.matmul(self.Q, self.R, out=self._G), out=self._G)
        self.b, self.q, self.e = (np.einsum("ij,ij->i", X, X) for X in (B, self.Q, E))
        self.norm_R, self.abs_R = float(_norm(self.R)), np.abs(self.R)

    def solve(self, A, mu):
        """The route's certified record of A = diag(sqrt(mu)) B0; None where
        the route does not certify it: a failed Cholesky (NaN), a singular or
        non-finite R_G^{-1}, an f not below 1, or a degenerate record once
        the terms are taken off.

        The record is ``_eigensolve(A, R)``'s, R = R_G R0, with the terms
        (t, f, h) derived above applied to it: ``(lower - t) / sqrt(1 + f)
        - h`` is its lower bound, ``(scale + t) / sqrt(1 - f) + h`` its
        scale, and it reads ``route``.  The terms are nonnegative, so they
        only lower ``lower`` and raise ``scale``, each rounding monotone: a
        record that ``_eigensolve`` finds degenerate, and returns as None, is
        degenerate with them too."""
        n, p = A.shape
        with np.errstate(all="ignore"):
            G = np.multiply(np.sqrt(mu)[:, None], self.Q, out=self._G)
            R_G = _umath_linalg.cholesky_lo(np.matmul(G.T, G, out=self._S),
                                            signature="d->d").T
            X = _triangular_inverse(R_G)
            if X is None:
                return None
            norm_G, norm_RG = math.sqrt(mu @ self.q), float(_norm(R_G))
            delta = _gamma(n) * norm_G ** 2 + _gamma(p + 1) * norm_RG ** 2
            s = float(1.0 / _norm(X)) - _gamma(p) * norm_RG
            if not s * s > 2.0 * delta:
                return None
            t = _gamma(p) * float(_norm(np.abs(R_G) @ self.abs_R))
            h = (math.sqrt(mu @ self.e) + _gamma(p + 4) * math.sqrt(mu @ self.b)
                 + (_gamma(p + 4) + EPS / 2) * norm_G * self.norm_R)
            R = R_G @ self.R
        own = _eigensolve(A, R)
        if own is None:
            return None
        f = delta / (s * s - delta)
        solve = SmallestVector(own.vector, own.sigma_min,
                               (own.lower - t) / math.sqrt(1.0 + f) - h,
                               (own.scale + t) / math.sqrt(1.0 - f) + h, route=True)
        return None if solve.degenerate else solve


def smallest_right_vector(A, qr=None, weights=None):
    """The ``SmallestVector`` of a fit step's system A, never None.

    A tall A is factored, A = QR, by ``_r_factor``: LAPACK's ``?geqrf`` in
    place on one Fortran-ordered copy, so A is left as it is for the
    eigensolve's ``A v`` to read.  The eigensolve on R (``_eigensolve``)
    gives the record where it is certified.  Otherwise, and for a wide A,
    the Jacobi kernel runs to full convergence as ``svd_real`` and
    ``svd_complex`` run it, by ``_svd(A)``, which factors a tall A itself:
    the record is ``svd_real(A).smallest()`` or ``svd_complex(A).smallest()``
    bit for bit, and reads ``sweeps > 0``.  The vector is in the kernel's
    phase (``_vector_phase``), complex for a complex A.

    A fit that factored its first system, B0 = Q0 R0, passes that
    ``WeightedQR`` as ``qr``: its first step, A = B0, reads R0 as its R, and
    a later step, A = diag(sqrt(weights)) B0, takes the route's record
    (``WeightedQR.solve``) where that is certified, and otherwise the record
    it would have without ``qr``, bit for bit.
    """
    if qr is not None and weights is not None:
        route = qr.solve(A, weights)
        if route is not None:
            return route
        qr = None
    R = qr.R if qr is not None else _r_factor(A) if A.shape[0] >= A.shape[1] else None
    warm = None if R is None else _eigensolve(A, R)
    return _svd(A).smallest() if warm is None else warm
