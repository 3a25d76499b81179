"""SVD kernel tests: examples, oracles, and factorization invariants."""

import collections
import functools
import importlib
import itertools
import math
import types
import warnings
from dataclasses import replace

import numpy as np
import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import unirat.lawson as lawson
import unirat.linalg as linalg
from unirat import (AaaConfig, BarycentricInterpolant, CayleyApproximant, NodeSet, aaa_fit,
                    bhat, expanded_loewner, svd_complex, svd_real)
from unirat.cli import FIGURE_FITS
from unirat.errors import InvalidInputError, NumericalFailureError
from unirat.linalg import (EPS, SWEEP_CAP, _gram, _jacobi_orthogonalize, _phase,
                           _pivoted_r, _round_robin)
from unirat.loewner import phase_entries

from conftest import FIT_GRID, figure_aaa_config, load_script, separated_nodes

mp.mp.dps = 50

machine = load_script("bench", "machine.py")


def charpoly_sigmas(A):
    """Extended-precision oracle: sqrt of the Gram-matrix eigenvalues,
    obtained from the characteristic polynomial of A*A."""
    A = np.atleast_2d(A)
    pad = max(A.shape[1] - A.shape[0], 0)
    if A.shape[0] < A.shape[1]:
        A = A.conj().T  # use the smaller Gram; the remaining values are 0
    A = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in A])
    G = A.H * A
    m = G.cols
    # Faddeev-LeVerrier recurrence for det(lambda I - G)
    M = mp.eye(m)
    coeffs = [mp.mpf(1)]
    for k in range(1, m + 1):
        GM = G * M
        c = -sum(GM[i, i] for i in range(m)).real / k
        coeffs.append(c)
        M = GM + c * mp.eye(m)
    roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
    vals = sorted((float(mp.sqrt(r.real)) if r.real > 0 else 0.0 for r in roots),
                  reverse=True)
    return np.asarray(vals + [0.0] * pad)


def assert_factorization(A, res, scale=None):
    n, m = A.shape
    k = res.left_vectors.shape[1]
    amax = np.max(np.abs(A)) if scale is None else scale
    recon = A @ res.right_vectors[:, :k] - res.left_vectors * res.singular_values[:k]
    assert np.max(np.abs(recon)) <= 64 * EPS * amax * max(n, m)
    V = res.right_vectors
    U = res.left_vectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(m))) <= 64 * EPS
    assert np.max(np.abs(U.conj().T @ U - np.eye(k))) <= 64 * EPS
    assert np.all(np.diff(res.singular_values) <= 0)
    assert np.all(res.singular_values >= 0)


class TestSvdReal:
    def test_identity(self):
        res = svd_real(np.eye(3))
        assert np.allclose(res.singular_values, [1, 1, 1], atol=4 * EPS)
        assert np.allclose(np.abs(res.right_vectors), np.eye(3), atol=4 * EPS)
        assert np.allclose(np.abs(res.left_vectors), np.eye(3), atol=4 * EPS)

    def test_diagonal(self):
        res = svd_real(np.diag([3.0, 2.0]))
        assert np.allclose(res.singular_values, [3.0, 2.0], atol=4 * EPS)
        assert not res.smallest().degenerate
        # the degeneracy rule's edges: one column is never degenerate, and its
        # Wedin bound is 0; a zero matrix and a NaN lower bound are
        one = svd_real(np.array([[3.0], [4.0]])).smallest()
        assert (one.degenerate, one.wedin, one.lower) == (False, 0.0, np.inf)
        assert svd_real(np.zeros((3, 2))).smallest().degenerate
        assert replace(one, lower=np.nan).degenerate
        assert replace(one, lower=np.nan).wedin == np.inf

    def test_golden_ratio(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        phi = (1 + np.sqrt(5)) / 2
        res = svd_real(A)
        assert np.allclose(res.singular_values, [phi, 1 / phi], rtol=8 * EPS)
        oracle = charpoly_sigmas(A)
        assert np.allclose(res.singular_values, oracle, rtol=1e-12)

    def test_random_shapes(self):
        rng = np.random.default_rng(11)
        for n, m in [(1, 1), (5, 3), (3, 5), (8, 8), (2, 7), (12, 4)]:
            A = rng.standard_normal((n, m))
            res = svd_real(A)
            assert res.singular_values.shape == (m,)
            assert res.right_vectors.shape == (m, m)
            assert res.left_vectors.shape == (n, min(n, m))
            assert_factorization(A, res)
            oracle = charpoly_sigmas(A)
            s1 = max(oracle[0], 1.0)
            tol = 1e-12 * s1 + 8 * EPS * s1  # roundoff floor for exact zeros
            assert np.max(np.abs(res.singular_values - oracle)) <= tol

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 4))
        r1 = svd_real(A.copy())
        r2 = svd_real(A.copy())
        assert np.array_equal(r1.singular_values, r2.singular_values)
        assert np.array_equal(r1.right_vectors, r2.right_vectors)
        assert np.array_equal(r1.left_vectors, r2.left_vectors)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            svd_real(np.array([[np.nan, 1.0]]))
        with pytest.raises(InvalidInputError):
            svd_real(np.array([[np.inf]]))
        with pytest.raises(InvalidInputError):
            svd_real(np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            svd_real(np.zeros(3))
        # one pass over |A| finds NaN and inf in either part
        for bad in (complex(np.nan, 1.0), complex(1.0, np.inf), complex(np.nan, np.inf)):
            A = np.ones((3, 2), dtype=complex)
            A[1, 1] = bad
            with pytest.raises(InvalidInputError):
                svd_complex(A)

    def test_sweep_cap_failure(self, monkeypatch):
        monkeypatch.setattr(linalg, "SWEEP_CAP", 0)
        A = np.random.default_rng(0).standard_normal((5, 5))
        with pytest.raises(NumericalFailureError) as exc:
            svd_real(A)
        assert exc.value.residual > 8 * EPS

    def test_sweep_cap_read_at_call_time(self, monkeypatch):
        # a cap raised after import is the one the kernel uses
        monkeypatch.setattr(linalg, "SWEEP_CAP", 100)
        A = np.random.default_rng(0).standard_normal((5, 5))
        res = svd_real(A)
        assert_factorization(A, res)

    def test_left_basis_completion_evenly_spread(self):
        # the left null vector (1, ..., 1)/sqrt(6) is spread evenly over the
        # coordinates, so the last left vector, which sigma does not
        # determine, must still come out orthonormal to the others
        n = 6
        P = np.eye(n) - np.full((n, n), 1.0 / n)
        A = P @ np.random.default_rng(43).standard_normal((n, n))
        res = svd_real(A)
        assert_factorization(A, res)
        assert res.singular_values[-1] <= 64 * EPS * res.singular_values[0]

    def test_rank_one_noise_column_orthonormal(self):
        # sigma_1 / sigma_0 = 6.2e-16 is noise; one Gram-Schmidt pass over
        # that column of A V gave |U^T U - I| = 456 eps
        rng = np.random.default_rng(258)
        A = np.outer(rng.standard_normal(2), rng.standard_normal(4))
        res = svd_real(A)
        assert res.singular_values[1] <= 8 * EPS * res.singular_values[0]
        assert_factorization(A, res)

    def test_left_vectors_built_on_first_access(self):
        res = svd_complex(np.random.default_rng(59).standard_normal((7, 3)))
        assert "left_vectors" not in vars(res)
        U = res.left_vectors
        assert "left_vectors" in vars(res)
        assert res.left_vectors is U

    @pytest.mark.parametrize("svd, shape", [(svd_real, (9, 6)), (svd_real, (3, 7)),
                                            (svd_complex, (8, 5)),
                                            (svd_complex, (4, 9))])
    def test_kernel_stats_repeat(self, monkeypatch, svd, shape):
        rng = np.random.default_rng(37)
        A = rng.standard_normal(shape)
        if svd is svd_complex:
            A = A + 1j * rng.standard_normal(shape)
        r1, r2 = svd(A), svd(A)
        assert (r1.sweeps, r1.rotations) == (r2.sweeps, r2.rotations)
        assert 1 <= r1.sweeps <= SWEEP_CAP
        assert r1.rotations >= 1
        monkeypatch.setattr(linalg, "SWEEP_CAP", r1.sweeps)
        r3 = svd(A)
        assert (r3.sweeps, r3.rotations) == (r1.sweeps, r1.rotations)


class TestSvdComplex:
    def test_unitary_diagonal(self):
        res = svd_complex(1j * np.eye(2))
        assert np.allclose(res.singular_values, [1, 1], atol=4 * EPS)

    def test_rank_one(self):
        res = svd_complex(np.array([[0.0, 2j], [0.0, 0.0]]))
        assert np.allclose(res.singular_values, [2.0, 0.0], atol=4 * EPS)

    def test_random_4x3_oracle(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        res = svd_complex(A)
        assert_factorization(A, res)
        oracle = charpoly_sigmas(A)
        assert np.max(np.abs(res.singular_values - oracle)) <= 1e-12 * oracle[0]

    def test_shift_reads_the_largest_modulus(self):
        # the largest modulus lies just above 2**256 and the largest component
        # below it, so the matrix is shifted by 2**-257, exactly: its sigma and
        # V are those of the matrix scaled by 2**-257 beforehand
        rng = np.random.default_rng(73)
        B = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        B *= 0.5 / np.max(np.abs(B))
        B[2, 1] = 0.75 + 0.75j
        A = linalg._ldexp(B, 256)
        assert np.max(np.maximum(np.abs(A.real), np.abs(A.imag))) < 2.0**256
        assert np.max(np.abs(A)) > 2.0**256
        res, ref = svd_complex(A), svd_complex(linalg._ldexp(A, -257))
        assert res.singular_values.tobytes() == np.ldexp(ref.singular_values, 257).tobytes()
        assert res.right_vectors.tobytes() == ref.right_vectors.tobytes()

    def test_random_shapes(self):
        rng = np.random.default_rng(17)
        for n, m in [(1, 1), (6, 3), (3, 6), (5, 5), (2, 9)]:
            A = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            res = svd_complex(A)
            assert_factorization(A, res)

    def test_matches_real_kernel_on_real_input(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((7, 4))
        sc = svd_complex(A).singular_values
        sr = svd_real(A).singular_values
        assert np.max(np.abs(sc - sr)) <= 8 * EPS * sr[0]

    def test_phase_scaling_invariance(self):
        # unit-modulus diagonal scalings leave singular values unchanged
        rng = np.random.default_rng(29)
        A = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        dl = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        dr = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        s0 = svd_complex(A).singular_values
        s1 = svd_complex(dl[:, None] * A * dr[None, :]).singular_values
        assert np.max(np.abs(s0 - s1)) <= 8 * EPS * s0[0]

    def test_sign_convention(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        V = svd_complex(A).right_vectors
        for j in range(V.shape[1]):
            top = V[np.argmax(np.abs(V[:, j])), j]
            assert abs(top.imag) <= 4 * EPS * abs(top)
            assert top.real >= 0


@st.composite
def graded_matrices(draw):
    """Random matrices with columns scaled over up to 12 decades, tall or
    wide, real or complex, of full or deficient rank."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 10))
    rank = draw(st.integers(0, min(n, m)))
    spread = draw(st.floats(0.0, 12.0))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if is_complex else X

    A = gaussian((n, rank)) @ gaussian((rank, m)) if rank else gaussian((n, m))
    return A * 10.0 ** rng.uniform(-spread, 0.0, size=m)


class TestSvdProperties:
    @pytest.mark.parametrize("m", range(1, 14))
    def test_round_robin_covers_each_pair_once(self, m):
        pairs = []
        for index, half in _round_robin(m):
            assert len(set(index.tolist())) == index.size  # disjoint pairs
            pairs += zip(index[:half].tolist(), index[half:].tolist())
        assert sorted(pairs) == list(itertools.combinations(range(m), 2))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(graded_matrices())
    def test_factorization_invariants(self, A):
        svd = svd_complex if np.iscomplexobj(A) else svd_real
        res = svd(A)
        n, m = A.shape
        V, U, s = res.right_vectors, res.left_vectors, res.singular_values
        k = U.shape[1]
        assert np.max(np.abs(V.conj().T @ V - np.eye(m))) <= 64 * EPS
        assert np.max(np.abs(U.conj().T @ U - np.eye(k))) <= 64 * EPS
        assert np.max(np.abs(np.linalg.norm(V, axis=0) - 1.0)) <= 4 * EPS
        recon = A @ V[:, :k] - U * s[:k]
        assert np.max(np.abs(recon)) <= 64 * EPS * np.max(np.abs(A)) * max(n, m)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        # the kernel record's degeneracy rule, on sigma_m, sigma_{m-1} and
        # sigma_max
        assert res.smallest().degenerate == (m > 1 and s[-2] - s[-1] <= 8 * EPS * s[0])

    @pytest.mark.parametrize("shape, dtype, scale", [
        ((6, 4), float, 1e200),    # Gram entries overflowed: sigma read inf
        ((6, 4), float, 1e-200),   # underflowed: sigma read 0
        ((6, 4), complex, 1e-156),  # no convergence within the sweep cap
        ((8, 8), complex, 1e-154),
        ((6, 4), complex, 1e-150),
        ((4, 6), complex, 1e-150),  # wide: the trailing value is zero
        ((5, 5), complex, 1e-150),
    ])
    def test_out_of_range_scale(self, shape, dtype, scale):
        rng = np.random.default_rng(43)
        A = rng.standard_normal(shape)
        if dtype is complex:
            A = A + 1j * rng.standard_normal(shape)
        A = scale * A
        res = (svd_complex if dtype is complex else svd_real)(A)
        ref = np.linalg.svd(A, compute_uv=False)
        assert np.all(np.abs(res.singular_values[:ref.size] - ref) <= 16 * EPS * ref)
        assert_factorization(A, res)

    @pytest.mark.xfail(strict=True, reason="ROADMAP 2(c)")
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_graded_column_scales(self, dtype):
        # squared norms of the 1e-170 columns underflow to 0, and their
        # singular values come out 0; one power-of-two rescale of the whole
        # matrix cannot bring both column scales into range
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 4))
        if dtype is complex:
            A = A + 1j * rng.standard_normal((6, 4))
        A[:, 2:] *= 1e-170
        res = (svd_complex if dtype is complex else svd_real)(A)
        ref = np.linalg.svd(A, compute_uv=False)
        assert np.all(np.abs(res.singular_values - ref) <= 64 * EPS * ref)

    def test_expanded_loewner_right_vectors_orthonormal(self):
        # node sets drawn like acceptance criterion 3's; many of the expanded
        # systems [M | -S_F M] are wide and rank-deficient
        rng = np.random.default_rng(20261018)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(max(m - 1, 1), 61))
            pts = rng.uniform(-15, 15, size=n + m)
            while len(set(pts.tolist())) != n + m:
                pts = rng.uniform(-15, 15, size=n + m)
            mu = 10.0 ** rng.uniform(-3, 0, size=n)
            nodes = NodeSet(test_nodes=pts[:n], support_nodes=pts[n:], weights=mu)
            V = svd_complex(expanded_loewner(nodes)).right_vectors
            worst = max(worst, float(np.max(np.abs(V.conj().T @ V - np.eye(2 * m)))))
        assert worst <= 64 * EPS


def masked_jacobi(R):
    """Reference Jacobi loop: each round rotates every pair, an inactive one
    by the identity (t = 0), through masks over the whole round.  It runs
    until a sweep rotates nothing, and counts that sweep only when the sweep
    before it rotated every pair: the kernel tests for convergence after a
    sweep that left a pair unrotated, and stops there."""
    k, m = R.shape
    pairs = m * (m - 1) // 2
    S = np.hstack([R.T, np.eye(m, dtype=R.dtype)])
    rotations, previous = 0, pairs
    for sweep in range(1, SWEEP_CAP + 1):
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
            active = (a > EPS * np.sqrt(app * aqq)) & np.isfinite(zeta)
            count = int(np.count_nonzero(active))
            if not count:
                continue
            rotated += count
            z = np.abs(zeta)
            with np.errstate(over="ignore", divide="ignore"):
                t = np.where(z > 1e150, 0.5 / z, 1.0 / (z + np.hypot(1.0, zeta)))
            t = np.where(active, np.copysign(t, zeta), 0.0)
            cs = 1.0 / np.hypot(1.0, t)
            sn = cs * t * _phase(np.where(active, apq, 1.0))
            X, Y = P[:half], P[half:]
            S[index[:half]] = cs[:, None] * X - sn.conj()[:, None] * Y
            S[index[half:]] = sn[:, None] * X + cs[:, None] * Y
        rotations += rotated
        if not rotated:
            return S[:, k:].T, sweep - (previous < pairs), rotations
        previous = rotated
    return S[:, k:].T, SWEEP_CAP, rotations


def kernel_input(A):
    """The lower-triangular factor whose columns the sweeps rotate: R3^H of
    the pivoted QR and LQ step applied to the square triangle of A."""
    n, m = A.shape
    if n >= m:
        T = np.linalg.qr(A, mode="r")
    else:
        T = np.linalg.qr(A.conj().T, mode="complete")[1][:n].conj().T
    R2, _ = _pivoted_r(T)
    return np.linalg.qr(R2.conj().T)[1].conj().T


def bit_cases():
    """A complex factor of order 1e-150, whose inner products fall below the
    range where the phase is one division, a zero column, rank one, and a
    subnormal column whose pair has 2|zeta| above the overflow threshold."""
    rng = np.random.default_rng(41)
    tiny = 1e-150 * kernel_input(rng.standard_normal((6, 4))
                                 + 1j * rng.standard_normal((6, 4)))
    zero_col = rng.standard_normal((7, 5))
    zero_col[:, 2] = 0.0
    rank_one = np.outer(rng.standard_normal(6), rng.standard_normal(5) + 1j)
    return {"1e-150 complex": tiny, "zero column": kernel_input(zero_col),
            "rank one": kernel_input(rank_one),
            "subnormal column": np.array([[1.0, 4e-309], [0.0, 3e-309]])}


class TestKernelBits:
    """The sweeps rotate only the active pairs of each round, and return the
    same bits as rotating every pair with identity rotations for the rest."""

    @staticmethod
    def assert_same_bits(R):
        V, sweeps, rotations = _jacobi_orthogonalize(R)
        V0, sweeps0, rotations0 = masked_jacobi(R)
        assert (sweeps, rotations) == (sweeps0, rotations0)
        assert V.tobytes() == V0.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graded_matrices())
    def test_matches_masked_rounds(self, A):
        self.assert_same_bits(kernel_input(A))

    @pytest.mark.parametrize("name", list(bit_cases()))
    def test_edge_cases(self, name):
        self.assert_same_bits(bit_cases()[name])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graded_matrices())
    def test_gram_matches_round_einsums(self, A):
        # the sweep-end test reads |apq| and the squared norms off one Gram
        # matrix of the kernel's strided factor; the rounds' einsums on
        # their gathered pairs must give the same bits, or the test could
        # stop where the next sweep would still rotate
        R = kernel_input(A)
        k, m = R.shape
        S = np.hstack([R.T, np.eye(m, dtype=R.dtype)])
        a, norms = _gram(S, k)
        for index, half in _round_robin(m):
            C = S[index][:, :k]
            Cc = C.conj()
            apq = np.einsum("ij,ij->i", Cc[:half], C[half:])
            assert np.abs(apq).tobytes() == a[index[:half], index[half:]].tobytes()
            assert np.einsum("ij,ij->i", Cc, C).real.tobytes() == norms[index].tobytes()


def pivoted_cases():
    """Square matrices for the pivoted QR, with the shapes of rank loss it
    must survive."""
    rng = np.random.default_rng(47)
    real = rng.standard_normal((6, 6))
    cplx = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    zero_col = real.copy()
    zero_col[:, 1] = 0.0
    dup = cplx.copy()
    dup[:, 3] = dup[:, 0]
    return {"real": real, "complex": cplx, "zero column": zero_col,
            "duplicate columns": dup, "zero matrix": np.zeros((4, 4)),
            "1x1": np.array([[-3.5]])}


class TestPivotedQr:
    @pytest.mark.parametrize("name", list(pivoted_cases()))
    def test_factorization(self, name):
        T = pivoted_cases()[name]
        R, p = _pivoted_r(T)
        k = T.shape[1]
        assert sorted(p.tolist()) == list(range(k))
        assert np.array_equal(R, np.triu(R))
        # a square R with R^H R = (T P)^H (T P) is the R of T P = Q R for a
        # unitary Q
        G = T[:, p].conj().T @ T[:, p]
        scale = max(np.max(np.abs(G)), 1.0)
        assert np.max(np.abs(R.conj().T @ R - G)) <= 16 * k * EPS * scale
        d = np.abs(np.diag(R))
        assert np.all(d[1:] <= d[:-1] * (1 + 4 * EPS))

    def test_pivots_largest_column_first(self):
        T = np.diag([1.0, 3.0, 2.0])
        R, p = _pivoted_r(T)
        assert p.tolist() == [1, 2, 0]
        assert np.allclose(np.abs(np.diag(R)), [3.0, 2.0, 1.0], rtol=8 * EPS, atol=0)


def reference_pivoted_r(T):
    """``_pivoted_r`` as it was before it dropped its no-op work on real
    input, the conjugate copies and ``np.outer``'s wrapper."""
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
        v = linalg._reflector(B[:, 0], math.sqrt(norms[i]))
        B -= np.outer(v, v.conj() @ B)
        B[1:, 0] = 0.0
    return R, p


def reference_preconditioned(T):
    """``_preconditioned`` with its LQ step from ``np.linalg.qr``."""
    R2, p = _pivoted_r(T)
    Q3, R3 = np.linalg.qr(R2.conj().T)
    W, sweeps, rotations = _jacobi_orthogonalize(R3.conj().T)
    V = np.empty_like(W)
    V[p] = Q3 @ W
    return V, sweeps, rotations


def square_triangle(A):
    """The square triangle that ``_svd`` preconditions for A: R of A = QR
    for a tall A, R_n^H of A^H = QR for a wide n-row one."""
    n, m = A.shape
    return linalg._r_factor(A) if n >= m else np.linalg.qr(A.conj().T)[1].conj().T


class TestPreconditionerBits:
    """The pivoted QR and the LQ step keep the bits of their NumPy forms."""

    @pytest.mark.parametrize("name", list(pivoted_cases()))
    def test_pivoted_r_cases(self, name):
        T = pivoted_cases()[name]
        R, p = _pivoted_r(T)
        R0, p0 = reference_pivoted_r(T)
        assert same_bits(R, R0) and same_bits(p, p0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graded_matrices())
    def test_pivoted_r_of_triangles(self, A):
        T = square_triangle(A)
        R, p = _pivoted_r(T)
        R0, p0 = reference_pivoted_r(T)
        assert same_bits(R, R0) and same_bits(p, p0)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (12, 7), (40, 30)])
    def test_qr_factors(self, dtype, order, shape):
        # both factors of np.linalg.qr bit for bit, Q in the Fortran order of
        # LAPACK's buffer, whose C-ordered copy is np.linalg.qr's Q, layout
        # included; the input is left as it was
        A = np.asarray(gaussian_matrix(np.random.default_rng(139), shape, dtype), order=order)
        before = A.copy(order="K")
        Q, R = linalg._qr(A)
        Q0, R0 = np.linalg.qr(A)
        assert Q.flags.f_contiguous
        assert same_bits(np.ascontiguousarray(Q), Q0) and same_bits(R, R0)
        assert same_bits(A, before)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graded_matrices())
    def test_preconditioned(self, A):
        # V, its sweeps and its rotations, with the LQ step from _qr, are
        # those of the LQ step from np.linalg.qr
        T = square_triangle(A)
        V, sweeps, rotations = linalg._preconditioned(T)
        V0, sweeps0, rotations0 = reference_preconditioned(T)
        assert same_bits(V, V0) and (sweeps, rotations) == (sweeps0, rotations0)


def gaussian_matrix(rng, shape, dtype):
    """A standard normal real or complex matrix."""
    X = rng.standard_normal(shape)
    return X + 1j * rng.standard_normal(shape) if dtype is complex else X


class TestRFactor:
    """``_r_factor`` gives the R of ``np.linalg.qr(A, mode="r")`` bit for bit,
    from LAPACK's geqrf in place on a copy, and leaves A as it was."""

    @staticmethod
    def assert_numpy_bits(A):
        before = A.tobytes()
        R = linalg._r_factor(A)
        expected = np.linalg.qr(A, mode="r")
        assert same_bits(R, expected)
        assert A.tobytes() == before

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("order", ["C", "F"])
    # LAPACK's blocked path, 32 columns to a block, starts above 128 columns
    # (ilaenv's crossover): (300, 56) and (2000, 64) run unblocked, (300, 129)
    # and (400, 160) blocked, with _r_factor's workspace in place of the one
    # that geqrf's query asks for
    @pytest.mark.parametrize("shape", [(40, 1), (12, 12), (2000, 28), (300, 56), (2000, 64),
                                       (300, 129), (400, 160)])
    def test_bits_of_numpy_qr(self, dtype, order, shape):
        rng = np.random.default_rng(31)
        self.assert_numpy_bits(np.asarray(gaussian_matrix(rng, shape, dtype), order=order))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_workspace_is_the_query_answer(self, dtype):
        # the workspace _r_factor passes is the one geqrf's query returns
        geqrf = linalg.lapack_lite.zgeqrf if dtype is complex else linalg.lapack_lite.dgeqrf
        for n, m in [(40, 1), (2000, 28), (300, 129), (400, 160)]:
            query = np.empty(1, dtype)
            geqrf(n, m, np.zeros((m, n), dtype), n, np.empty(m, dtype), query, -1, 0)
            assert int(query[0].real) == linalg._GEQRF_BLOCK * m

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_leading_block_of_fortran_buffer(self, dtype):
        # aaa_fit solves the leading k x m block of an n x m_max buffer
        rng = np.random.default_rng(37)
        buf = np.asfortranarray(gaussian_matrix(rng, (300, 20), dtype))
        before = buf.tobytes()
        self.assert_numpy_bits(buf[:250, :14])
        assert buf.tobytes() == before

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_systems_rejected(self, dtype, bad):
        A = gaussian_matrix(np.random.default_rng(41), (20, 4), dtype)
        A[3, 2] = bad
        for solve in (lambda: linalg.smallest_right_vector(A), lambda: svd_complex(A)):
            with pytest.raises(InvalidInputError, match="non-finite"):
                solve()
        if dtype is float:
            with pytest.raises(InvalidInputError, match="non-finite"):
                svd_real(A)


#: The sizes of the helper checks: a step system's columns run from 1 to
#: m_max, or twice that in a Lawson fit's system.
HELPER_SIZES = [1, 2, 12, 28, 56, 64]


def unit_vector(rng, m, dtype):
    v = gaussian_matrix(rng, m, dtype)
    return v / np.linalg.norm(v)


def same_bits(a, b):
    """Whether a and b hold the same bytes, with the same dtype, shape and
    strides (a product's bits can depend on its operands' layout)."""
    a, b = np.asarray(a), np.asarray(b)
    return ((a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
            and a.tobytes() == b.tobytes())


def edge_vectors(m, dtype):
    """Unit vectors at the reflector's edges: +-e_1, and for m > 1 a first
    entry that is zero, subnormal of either sign or, complex, purely
    imaginary."""
    firsts = [1.0, -1.0] + ([1j] if dtype is complex else [])
    if m > 1:
        firsts += [0.0, 1e-310, -1e-310] + ([0.6j, -0.6j] if dtype is complex else [])
    tail = np.linspace(1.0, 2.0, m - 1)
    for v0 in firsts:
        v = np.zeros(m, dtype)
        v[0] = v0
        v[1:] = math.sqrt(1.0 - abs(v0) ** 2) * tail / np.linalg.norm(tail)
        yield v


def mp_sigmas(R):
    """The singular values of R from a 30-digit mpmath SVD, descending."""
    with mp.workdps(30):
        svd = mp.svd_c if np.iscomplexobj(R) else mp.svd_r
        s = svd(mp.matrix(R.tolist()), compute_uv=False)
        return sorted((s[i] for i in range(R.shape[1])), reverse=True)


class TestNumpyCallBits:
    """Each helper a warm step calls in place of a NumPy call gives that
    call's bits: the step pays for LAPACK's work, not for NumPy's wrappers.
    The reflector that the pivoted QR makes and ``gap_bound`` replace no
    NumPy call; they are checked for what their callers need of them."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", HELPER_SIZES)
    def test_complement(self, dtype, m):
        # _reflector(x, ||x||), as the pivoted QR calls it, gives v with
        # ||v||^2 = 2 and (I - v v^H) x = -s ||x|| e_1, s the phase of x_0
        # (1 where x_0 is subnormal), so the reflector's trailing columns
        # are an orthonormal basis of x's complement: for random vectors and
        # at the edges, each also scaled by 1e-150 and by 1e150
        rng = np.random.default_rng(m)
        tol = 4 * (m + 2) * EPS
        e = np.eye(m, dtype=dtype)
        for u in [unit_vector(rng, m, dtype) for _ in range(5)] + list(edge_vectors(m, dtype)):
            for x in (u, 1e-150 * u, 1e150 * u):
                alpha = np.linalg.norm(x)
                s = x[0] / abs(x[0]) if abs(x[0]) >= linalg.TINY else 1.0
                v = linalg._reflector(x, alpha)
                assert v.dtype == x.dtype and v.shape == (m,)
                assert abs(np.vdot(v, v).real - 2.0) <= tol
                assert np.linalg.norm(x - v * np.vdot(v, x) + s * alpha * e[0]) <= tol * alpha
                W = e[:, 1:] - np.outer(v, v[1:].conj())
                assert np.max(np.abs(W.conj().T @ W - e[1:, 1:]), initial=0.0) <= tol
                assert np.max(np.abs(u.conj() @ W), initial=0.0) <= tol

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", HELPER_SIZES)
    def test_gap_bound_digits(self, dtype, m):
        # gap_bound stays below sigma_{m-1} of 30-digit SVDs: of a triangle
        # whose sigma_{m-1} is isolated, where l lies within a relative 1e-6
        # of it, and of that triangle with columns graded by 1e-8 and 1e-14
        if not 1 < m <= 28:
            return
        rng = np.random.default_rng(m)
        sigma = np.append(np.logspace(0, -2, m - 2), [1e-6, 1e-9])
        R = np.linalg.qr(spectrum_matrix(rng, m, sigma, dtype), mode="r")
        for T in (R, R * np.logspace(0, -8, m), R * np.logspace(0, -14, m)):
            reference = mp_sigmas(T)[m - 2]
            assert 0.0 <= mp.mpf(linalg.gap_bound(T)[0]) <= reference
            if T is R:
                assert linalg.gap_bound(R)[0] >= (1 - 1e-6) * float(reference)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", HELPER_SIZES[1:])
    def test_gap_bound_of_singular_complement(self, dtype, m):
        # 0.0, with nothing raised or warned, for a triangle of rank m - 2,
        # on whose smallest vector's complement it is singular, a zero one,
        # one whose norm overflows, and one with a NaN or an inf, which
        # ?gesdd reads as NaN
        rank = np.diag(np.append(np.ones(m - 1), 0.0)).astype(dtype)
        rank[0, 0] = 0.0
        cases = [rank, np.zeros((m, m), dtype), 1e300 * np.triu(np.ones((m, m), dtype))]
        for bad in (np.nan, np.inf):
            T = np.eye(m, dtype=dtype)
            T[0, -1] = bad
            cases.append(T)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for T in cases:
                assert linalg.gap_bound(T)[0] == 0.0

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", HELPER_SIZES)
    def test_triangular_inverse(self, dtype, m):
        rng = np.random.default_rng(m + 1)
        T = np.triu(gaussian_matrix(rng, (m, m), dtype)) + 4.0 * np.eye(m)
        with np.errstate(all="ignore"):  # as its callers call it
            X = linalg._triangular_inverse(T)
        assert same_bits(X, np.linalg.inv(T))
        assert same_bits(X, np.linalg.solve(T, np.eye(m, dtype=dtype)))
        # a singular triangle, and one whose inverse overflows: None, where
        # np.linalg.inv raises or returns inf, with nothing raised or warned
        singular, overflowing = T.copy(), T.copy()
        singular[-1, -1], overflowing[-1, -1] = 0.0, 1e-310
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            assert linalg._triangular_inverse(singular) is None
            assert linalg._triangular_inverse(overflowing) is None
        # the eigensolve and gap_bound set that errstate themselves
        A = np.vstack([singular, np.zeros((2, m), dtype)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert linalg._eigensolve(A, singular) is None
            assert linalg._eigensolve(A, overflowing) is None
            if m > 2:
                assert linalg.gap_bound(np.diag([1.0] + [1e-310] * (m - 1)))[0] == 0.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_entry_phase(self, dtype):
        # the phase of a vector's one largest entry has the bits of
        # _vector_phase's 2-D gather: real and complex entries, a zero
        # vector, subnormal entries, and ties of magnitude, where both take
        # the first
        rng = np.random.default_rng(107)
        z = 1.0 if dtype is float else 1j
        cases = [gaussian_matrix(rng, m, dtype) for m in (1, 2, 12, 28)]
        cases += [np.zeros(5, dtype), np.array([0.0, -3e-320, 1e-323], dtype) * z,
                  np.array([1e-310, -2e-310, 5e-311], dtype) * z,
                  np.array([0.5, -2.0, 2.0, -2.0], dtype) * z, np.array([-0.0, 0.0], dtype)]
        # a largest entry whose imaginary part is a zero of either sign, in a
        # modified fit's real vector and an original fit's complex one: the
        # phase is formed by NumPy's complex division, whose steps keep the
        # sign of each zero part
        cases += [np.array([0.5, -3.0, -0.0, 1.0], dtype), np.array([-0.0, 3.0, -1.0], dtype)]
        if dtype is complex:
            cases += [np.array([3.0, 3j, -3.0, 0.6 + 0.8j]), np.array([1e-310 + 2e-310j, 0.0]),
                      np.array([3 + 4j, -5.0, 4 - 3j])]
            cases += [np.array([0.1 * abs(re) * (1 + 1j), complex(re, im), -0.5 * re])
                      for re in (3.0, -3.0, 1e-310, -1e-310) for im in (0.0, -0.0)]
            cases += [np.array([complex(re, im), 0.1j]) for re in (0.0, -0.0) for im in (2.0, -2.0)]
        # random vectors over the whole range, with real or imaginary parts
        # of the largest entry zeroed
        for scale in 10.0 ** rng.uniform(-320, 300, 200):
            v = scale * gaussian_matrix(rng, int(rng.integers(1, 30)), dtype)
            i = np.argmax(np.abs(v))
            if dtype is complex:
                v[i] = [complex(v[i].real, 0.0), complex(v[i].real, -0.0),
                        complex(0.0, v[i].imag), v[i]][int(rng.integers(4))]
            cases.append(v)
        for v in cases:
            assert same_bits(linalg._entry_phase(v), linalg._vector_phase(v[:, None]))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", HELPER_SIZES)
    def test_triu(self, dtype, m):
        # C-ordered, and the transposed C buffer that _r_factor passes
        rng = np.random.default_rng(m + 2)
        for T in (gaussian_matrix(rng, (m, m), dtype),
                  gaussian_matrix(rng, (m, m + 3), dtype)[:, :m].T):
            assert same_bits(linalg._triu(T), np.triu(T))
        assert not linalg._strict_lower(m).flags.writeable

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("m", HELPER_SIZES)
    def test_norm(self, dtype, m):
        rng = np.random.default_rng(m + 3)
        M = gaussian_matrix(rng, (m, m + 1), dtype)
        Z = gaussian_matrix(rng, (m, m), complex)
        cases = [M, np.asfortranarray(M), M[:, 0], M[0], M.T,
                 Z.real, Z.imag[:, 0], Z.real[0]]
        # zero, subnormal (its square underflows to 0) and overflowing input
        cases += [np.zeros(m, dtype), np.full(m, 1e-310, dtype), np.full(m, 1e200, dtype)]
        with np.errstate(all="ignore"):
            for x in cases:
                norm = linalg._norm(x)
                assert type(norm) is np.float64
                assert same_bits(norm, np.linalg.norm(x))
            # a NumPy scalar, so a zero or overflowed norm divides without
            # ZeroDivisionError
            assert 1.0 / linalg._norm(cases[-2]) == np.inf
            assert 1.0 / linalg._norm(cases[-1]) == 0.0

def small_cases():
    """A zero column and a rank-one matrix, which the pivoting reorders, and
    a wide matrix."""
    rng = np.random.default_rng(53)
    zero_col = rng.standard_normal((5, 3))
    zero_col[:, 0] = 0.0
    rank_one = np.outer(rng.standard_normal(4), [1.0, 2.0, 3.0])
    wide = rng.standard_normal((2, 4))
    return {"zero column": zero_col, "rank one": rank_one, "wide 2x4": wide}


class TestSmallMatrices:
    @pytest.mark.parametrize("svd", [svd_real, svd_complex])
    @pytest.mark.parametrize("name", list(small_cases()))
    def test_factorization(self, svd, name):
        A = small_cases()[name]
        if svd is svd_complex:
            A = A * np.exp(1j * np.arange(A.shape[1]))
        res = svd(A)
        n, m = A.shape
        V, U, s = res.right_vectors, res.left_vectors, res.singular_values
        k = U.shape[1]
        assert np.max(np.abs(V.conj().T @ V - np.eye(m))) <= 64 * EPS
        scale = np.max(np.abs(A))
        assert np.max(np.abs(A @ V[:, :k] - U * s[:k])) <= 64 * EPS * scale * max(n, m)
        ref = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(s[:k] - ref)) <= 64 * EPS * ref[0]


def figure_support(variant):
    """The support nodes of the AAA stage of the variant's figure AAA-Lawson
    fit."""
    return aaa_fit(FIT_GRID, figure_aaa_config(variant))[0].support


class TestSweepCounts:
    """Sweeps are deterministic; the unpreconditioned kernel needed 12-16 on
    the figure-grid Lawson systems."""

    def test_first_lawson_systems(self):
        # unit weights, over the support nodes that figure 1's AAA-Lawson fit
        # refines
        y = figure_support("modified")
        x = FIT_GRID[~np.isin(FIT_GRID, y)]
        nodes = NodeSet(test_nodes=np.concatenate([x, y]), support_nodes=y)
        assert svd_real(bhat(nodes)).sweeps <= 8
        assert svd_complex(expanded_loewner(nodes)).sweeps <= 8

    @pytest.mark.parametrize("variant, first", [("modified", 8), ("original", 9)])
    def test_figure_lawson_fit(self, variant, first):
        # the eigensolve certifies all 20 steps, step 1 included, so the fit
        # reaches no kernel.  On step 1's system, the unit-weight one, the
        # kernel runs to full convergence in these exact counts
        y = figure_support(variant)
        x = FIT_GRID[~np.isin(FIT_GRID, y)]
        _, trace = lawson.lawson_fit(x, y, lawson.LawsonConfig(n_lawson=20, variant=variant))
        assert [st.solve.sweeps for st in trace.steps] == [0] * 20
        nodes = NodeSet(test_nodes=np.concatenate([x, y]), support_nodes=y)
        kernel = svd_real(bhat(nodes)) if variant == "modified" else svd_complex(
            expanded_loewner(nodes))
        assert kernel.sweeps <= first
        # under one BLAS thread LAPACK's complex tall QR rounds the original
        # system differently; the real QR of the modified one does not
        one_thread = machine.blas_threads() == 1
        counts = {"modified": (7, 1659), "original": (8, 1804 if one_thread else 1803)}[variant]
        assert (kernel.sweeps, kernel.rotations) == counts


def spectrum_matrix(rng, n, sigma, dtype):
    """An n x sigma.size matrix with singular values sigma and random
    singular vectors."""
    U = np.linalg.qr(gaussian_matrix(rng, (n, sigma.size), dtype))[0]
    V = np.linalg.qr(gaussian_matrix(rng, (sigma.size, sigma.size), dtype))[0]
    return (U * sigma) @ V.conj().T


def record_warm_steps(monkeypatch, kernel=False):
    """Record ``(A, result)`` for every fit step, with a copy of A, since a
    fit refills its systems in place; the result is the step's record, the
    eigensolve's, the route's or a wide system's, or None where the step ran
    the kernel, unless ``kernel``, which keeps the kernel's records too."""
    loewner = importlib.import_module("unirat.loewner")
    calls = []

    def record(A, *args, solve=loewner.smallest_right_vector):
        out = solve(A, *args)
        calls.append((A.copy(), None if out.sweeps and not kernel else out))
        return out
    monkeypatch.setattr(loewner, "smallest_right_vector", record)
    return calls


def record_factorizations(monkeypatch):
    """Record the shape of every fit step's system, and of every matrix that
    ``linalg._geqrf`` factors (for ``_r_factor``, and a modified Lawson
    fit's first system, ``linalg.WeightedQR``), each in call order."""
    loewner = importlib.import_module("unirat.loewner")
    steps, factored = [], []

    def geqrf(A, factor=linalg._geqrf):
        factored.append(A.shape)
        return factor(A)

    def record(A, *args, solve=loewner.smallest_right_vector):
        steps.append(A.shape)
        return solve(A, *args)
    monkeypatch.setattr(linalg, "_geqrf", geqrf)
    monkeypatch.setattr(loewner, "smallest_right_vector", record)
    return steps, factored


def step_factorizations(steps, factored):
    """The factorizations of matrices shaped as a step system, by shape."""
    return collections.Counter(shape for shape in factored if shape in steps)


class TestInverseIteration:
    """Fit steps take their vector from one Hermitian eigensolve of
    (R^H R)^{-1}, R that of the step's system, certified by a lower bound on
    sigma_{m-1}; a step it does not certify runs the kernel."""

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_figure_warm_steps_within_wedin_angle(self, monkeypatch, variant):
        # l <= sigma_{m-1} and ||R||_F >= sigma_max, so eps ||R||_F / (l - sigma)
        # bounds the angle by which rounding of the order eps ||A|| moves the
        # last vector (Wedin); the kernel's vector on the same system lies
        # within it.  All four figure fits: every AAA iteration and every
        # Lawson step is certified
        calls = record_warm_steps(monkeypatch)
        for config in FIGURE_FITS.values():
            if config.variant == variant:
                aaa_fit(FIT_GRID, config)
        uncertified = [A.shape[1] for A, out in calls if out is None]
        assert uncertified == []
        assert sum(A.shape[1] == 28 for A, _ in calls) == 20
        assert sum(A.shape[1] == 1 for A, _ in calls) == 2
        svd = svd_real if variant == "modified" else svd_complex
        for A, out in calls:
            kernel = svd(A).smallest()  # its lower is sigma_{m-1}, inf for m = 1
            u = kernel.vector
            assert out.lower <= kernel.lower
            assert abs(out.sigma_min - kernel.sigma_min) <= 8 * EPS * kernel.scale
            p = np.vdot(u, out.vector)
            angle = np.linalg.norm(out.vector - u * (p / abs(p)))
            assert angle <= out.wedin

    def test_figure_fits_factor_each_system_once(self, monkeypatch):
        # each step, all of them warm, factors its system once; the
        # 19 modified Lawson steps after the first factor none, since the
        # route solves them from their fit's one QR, and their shape is
        # that of the original Lawson steps'
        steps, factored = record_factorizations(monkeypatch)
        traces = [aaa_fit(FIT_GRID, config)[1] for config in FIGURE_FITS.values()]
        solves = [st.solve for t in traces
                  for st in t.iterations + (t.lawson.steps if t.lawson else [])]
        route = [A for A, s in zip(steps, solves) if s.route]
        assert len(solves) == 98 and len(route) == 19
        assert sum(step_factorizations(steps, factored).values()) == 79
        assert (step_factorizations(steps, factored)
                == collections.Counter(steps) - collections.Counter(route))

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_kernel_fallback_is_the_public_svd(self, monkeypatch, variant):
        # a step that the kernel serves reads svd_real(A).smallest() or
        # svd_complex(A).smallest() bit for bit: with the eigensolve refusing
        # every step, 8 tall AAA steps and 3 tall Lawson steps, of which the
        # modified fit's steps 2 and 3 try the route and are refused
        monkeypatch.setattr(linalg, "_eigensolve", lambda A, R: None)
        refused = []

        def route(self, A, mu, solve=linalg.WeightedQR.solve):
            refused.append(solve(self, A, mu))
            return refused[-1]
        monkeypatch.setattr(linalg.WeightedQR, "solve", route)
        tall = record_warm_steps(monkeypatch, kernel=True)
        aaa_fit(np.linspace(-3, 3, 40), AaaConfig(m_max=8, tol=0.0, variant=variant, n_lawson=3))
        assert [A.shape[0] > A.shape[1] for A, _ in tall] == [True] * 11
        assert refused == ([None] * 2 if variant == "modified" else [])
        svd = svd_real if variant == "modified" else svd_complex
        for A, out in tall:
            assert out.sweeps > 0
            assert record_bits(out) == record_bits(svd(A).smallest())
        # the 3 wide steps of a Lawson fit with too few test nodes, each of
        # full row rank, are solved from the QR of A^H alone and read the
        # kernel's vector bit for bit
        monkeypatch.undo()
        wide = record_warm_steps(monkeypatch, kernel=True)
        lawson.lawson_fit([4.0, 5.0, 6.0], [0.3, 1.1, 2.7, 3.5],
                          lawson.LawsonConfig(n_lawson=3, variant=variant))
        assert [A.shape for A, _ in wide] == [(7, 8)] * 3
        for A, out in wide:
            assert_kernel_result(A, out)

    def test_figure_fit_records(self, figure_fits):
        # the kernel serves no step: every record is the eigensolve's, 79 on
        # a QR of their own system and the 19 modified Lawson steps after
        # the first on the route's triangle, and each is 685 eps ||R||_F or
        # more clear of the rule once gap_bound has taken off its rounding
        # term (745 before), a route record 4 448 once the route's terms are
        # off too
        steps = []
        for _, trace, _ in figure_fits.values():
            steps += trace.iterations + (trace.lawson.steps if trace.lawson else [])
        warm = [st.solve for st in steps if not st.solve.sweeps]
        assert len(steps) == len(warm) == 98
        assert sum(s.route for s in warm) == 19
        assert all(s.lower - s.sigma_min >= 685 * EPS * s.scale for s in warm)
        assert all(s.lower - s.sigma_min >= 4400 * EPS * s.scale for s in warm if s.route)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_systems(self, dtype):
        # the eigensolve gives LAPACK's smallest right vector, in the
        # kernel's phase
        rng = np.random.default_rng(83)
        for (n, m), top in itertools.product([(12, 4), (40, 12)], (2, 6)):
            sigma = np.logspace(0, -top, m - 1)
            sigma = np.append(sigma, 1e-3 * sigma[-1])
            A = spectrum_matrix(rng, n, sigma, dtype)
            u = np.linalg.svd(A)[2][-1].conj()
            out = linalg.smallest_right_vector(A)
            assert out.sweeps == 0
            v, s = out.vector, out.sigma_min
            i = int(np.argmax(np.abs(v)))
            assert v[i].real > 0 and abs(v[i].imag) <= EPS * v[i].real
            p = np.vdot(u, v)
            assert np.linalg.norm(v - u * (p / abs(p))) <= 64 * EPS * sigma[0] / sigma[-2]
            assert abs(s - sigma[-1]) <= 8 * EPS * sigma[0]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_column_has_kernel_bits(self, dtype):
        # a one-column system, AAA's first: the eigensolve's record is warm,
        # with gap_bound's inf, and its vector is the kernel's bit for bit;
        # a column of 1e-300 or 1e300 overflows ||R^{-1}||_F or leaves Z
        # zero and runs the kernel
        rng = np.random.default_rng(113)
        svd = svd_real if dtype is float else svd_complex
        for n, scale in itertools.product((1, 2, 40, 2000), (1.0, 1e-300, 1e300)):
            A = scale * gaussian_matrix(rng, (n, 1), dtype)
            out = linalg.smallest_right_vector(A)
            assert (out.sweeps == 0, out.lower) == (scale == 1.0, np.inf)
            assert same_bits(out.vector, svd(A).smallest().vector)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_uncertified_systems(self, dtype):
        # a double smallest singular value is not certified and runs the
        # kernel; a wide system of full row rank needs no eigensolve, and
        # its record, from the QR of A^H alone, holds the kernel's result
        rng = np.random.default_rng(89)
        wide = spectrum_matrix(rng, 8, np.ones(7), dtype).T
        assert_kernel_result(wide, linalg.smallest_right_vector(wide))
        double = spectrum_matrix(rng, 20, np.array([1.0] * 6 + [1e-3] * 2), dtype)
        assert linalg.smallest_right_vector(double).sweeps > 0

    def test_large_condition_settles(self):
        # a complex 60 x 30 system with sigma_max / sigma_{m-1} = 1e10 and
        # sigma_m = 1e-3 sigma_{m-1}: forming (R^H R)^{-1} squares that
        # condition, but the eigensolve certifies each of 10 seeded systems,
        # within the record's Wedin angle of LAPACK's vector
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sigma = np.logspace(0, -10, 29)
            A = spectrum_matrix(rng, 60, np.append(sigma, 1e-3 * sigma[-1]), complex)
            u = np.linalg.svd(A)[2][-1].conj()
            out = linalg.smallest_right_vector(A)
            assert out.sweeps == 0
            p = np.vdot(u, out.vector)
            assert np.linalg.norm(out.vector - u * (p / abs(p))) <= out.wedin
            assert abs(out.sigma_min - 1e-13) <= 8 * EPS

    def test_unsettled_iteration(self, monkeypatch):
        # the eigensolve settles this system's vector; where its u holds a
        # NaN or an inf, so that Z u is not finite, nothing is settled and
        # the step runs the kernel, with the kernel's bits
        sigma = np.append(np.logspace(0, -3, 7), 1e-6)
        A = spectrum_matrix(np.random.default_rng(97), 20, sigma, float)
        assert linalg.smallest_right_vector(A).sweeps == 0
        gufuncs = linalg._umath_linalg
        kernel = svd_real(A).smallest().vector
        for bad in (np.nan, np.inf):
            def unsettled(Z, signature, bad=bad):
                w, u = gufuncs.eigh_lo(Z, signature=signature)
                u[0, -1] = bad
                return w, u
            monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(
                inv=gufuncs.inv, eigh_lo=unsettled, svd=gufuncs.svd))
            out = linalg.smallest_right_vector(A)
            assert out.sweeps > 0
            assert same_bits(out.vector, kernel)

    def test_lapack_calls_do_not_grow_with_iterations(self, monkeypatch):
        # a warm step forms R^{-1} by one solve and makes one eigensolve,
        # however many iterations inverse iteration would need: from
        # ones / sqrt(10), sigma_m / sigma_{m-1} = 0.6 took 7 squarings and
        # 0.9999 took 19, the work of 2^19 - 1 plain iterations.  Every
        # iteration of a fit makes the same two calls, and gap_bound one
        # values-only SVD, none for one column
        calls = []
        gufuncs = linalg._umath_linalg

        def counted(name, f):
            def call(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return call
        monkeypatch.setattr(linalg, "_triangular_inverse",
                            counted("inverse", linalg._triangular_inverse))
        monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(
            inv=gufuncs.inv, eigh_lo=counted("eigh", gufuncs.eigh_lo),
            svd=counted("svd", gufuncs.svd), cholesky_lo=gufuncs.cholesky_lo))
        rng = np.random.default_rng(103)
        top = np.logspace(4, 3, 8)
        for last in (0.6, 0.9999):
            A = spectrum_matrix(rng, 30, np.append(top, [1.0, last]), float)
            calls.clear()
            assert linalg.smallest_right_vector(A).sweeps == 0
            assert calls == ["inverse", "eigh", "svd"]
        steps = record_warm_steps(monkeypatch)
        calls.clear()
        _, trace = aaa_fit(FIT_GRID, FIGURE_FITS["lawson_mod"])
        assert len(steps) == len(trace.iterations) + len(trace.lawson.steps) == 34
        assert all(out is not None for _, out in steps)
        # a route step inverts its Cholesky factor R_G too
        assert calls == (["inverse", "eigh"] + ["inverse", "eigh", "svd"] * 14
                         + ["inverse", "inverse", "eigh", "svd"] * 19)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_lapack_lite_calls_of_a_warm_step(self, monkeypatch, dtype):
        # a warm step takes one QR from lapack_lite, of its system, and
        # forms no Q: no ?orgqr or ?ungqr
        lite, calls = linalg.lapack_lite, []

        def counted(name):
            def call(*args):
                calls.append(name)
                return getattr(lite, name)(*args)
            return call
        names = [name for name in dir(lite) if name[0] in "dz"]
        monkeypatch.setattr(linalg, "lapack_lite",
                            types.SimpleNamespace(**{name: counted(name) for name in names}))
        sigma = np.append(np.logspace(3, 1, 8), [1.0, 0.6])
        A = spectrum_matrix(np.random.default_rng(109), 30, sigma, dtype)
        assert linalg.smallest_right_vector(A).sweeps == 0
        assert calls == ["zgeqrf" if dtype is complex else "dgeqrf"]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_small_gap_certified_within_cap(self, dtype):
        # sigma_m / sigma_{m-1} = 0.99, a gap that plain inverse iteration
        # closes only in about 1 700 steps: the eigensolve certifies the
        # vector, on LAPACK's to within the record's Wedin angle
        rng = np.random.default_rng(103)
        A = spectrum_matrix(rng, 30, np.append(np.logspace(3, 1, 8), [1.0, 0.99]), dtype)
        out = linalg.smallest_right_vector(A)
        assert out.sweeps == 0
        u = np.linalg.svd(A)[2][-1].conj()
        p = np.vdot(u, out.vector)
        assert np.linalg.norm(out.vector - u * (p / abs(p))) <= out.wedin

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_gap_bound(self, dtype):
        # a lower bound on sigma_{m-1}, within a relative 1e-6 of it here;
        # 0 for a singular triangle, inf for one column; each with ||R||_F,
        # the bits of np.linalg.norm
        rng = np.random.default_rng(101)
        sigma = np.logspace(0, -8, 10)
        R = np.linalg.qr(spectrum_matrix(rng, 10, sigma, dtype), mode="r")
        ell, scale = linalg.gap_bound(R)
        assert (1 - 1e-6) * sigma[-2] <= ell <= sigma[-2]
        assert type(ell) is float
        assert type(scale) is float and same_bits(scale, np.linalg.norm(R))
        assert linalg.gap_bound(np.diag([1.0, 0.0, 0.0]).astype(dtype)) == (0.0, 1.0)
        assert linalg.gap_bound(np.array([[2.0]], dtype=dtype)) == (np.inf, 2.0)

    @pytest.mark.parametrize("variant", ["modified", "original"])
    @pytest.mark.parametrize("wide", [True, False], ids=["wide", "degenerate"])
    def test_lawson_cold_steps(self, monkeypatch, variant, wide):
        # m - 1 test nodes leave each step's system one row short of square,
        # of full row rank: the QR of A^H alone solves it, with the kernel's
        # result.  With 11 support nodes on 41 nodes of [-3, 3] the systems
        # are tall, and their two smallest singular values both sit at
        # roundoff: no step is certified, and every step runs the kernel,
        # whose flags the trace records
        if wide:
            x, y = [4.0, 5.0, 6.0], [0.3, 1.1, 2.7, 3.5]
        else:
            grid = np.linspace(-3, 3, 41)
            y = aaa_fit(grid, AaaConfig(m_max=11, tol=0.0, variant=variant))[0].support
            x = grid[~np.isin(grid, y)]
        assert (len(x) + len(y) < 2 * len(y)) == wide
        calls = record_warm_steps(monkeypatch, kernel=True)
        _, trace = lawson.lawson_fit(x, y, lawson.LawsonConfig(n_lawson=3, variant=variant))
        assert [out for _, out in calls] == [st.solve for st in trace.steps]
        assert len(calls) == 3
        if wide:
            for A, out in calls:
                assert_kernel_result(A, out)
        else:
            assert all(st.solve.sweeps > 0 and st.degenerate for st in trace.steps)


@st.composite
def wide_systems(draw):
    """``(A, full)``: a wide n x p matrix, p <= 12, real or complex, scaled
    by 1, 1e-200 or 1e200, of full row rank or of a rank below n (0 for
    the zero matrix), and whether its rank is full."""
    n = draw(st.integers(1, 11))
    p = draw(st.integers(n + 1, 12))
    rank = draw(st.integers(0, n))
    dtype = complex if draw(st.booleans()) else float
    scale = draw(st.sampled_from([1.0, 1e-200, 1e200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rank == n:
        A = gaussian_matrix(rng, (n, p), dtype)
    else:
        A = gaussian_matrix(rng, (n, rank), dtype) @ gaussian_matrix(rng, (rank, p), dtype)
    return scale * A, rank == n


class TestWideRecords:
    """A wide system's record comes from the complete QR of A^H alone."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(wide_systems())
    def test_drawn_systems(self, case):
        # every record is finite, with a unit null vector and a lower bound
        # at most the kernel's sigma_{p-1}; where the rank is full it holds
        # the kernel's result, and it is determined only for a null space
        # of dimension one; where it is not, the record is degenerate
        A, full = case
        n, p = A.shape
        out = linalg.smallest_right_vector(A)
        kernel = (svd_complex if np.iscomplexobj(A) else svd_real)(A).smallest()
        assert (out.sweeps, out.rotations, out.route, out.terms) == (0, 0, False, 0.0)
        assert all(math.isfinite(x) for x in (out.sigma_min, out.lower, out.scale))
        assert abs(np.linalg.norm(out.vector) - 1.0) <= 4 * p * EPS
        assert out.lower <= kernel.lower
        assert out.sigma_min <= 8 * EPS * out.scale
        if full:
            assert_kernel_result(A, out)
            assert out.degenerate == (p > n + 1)
        else:
            assert out.degenerate


def assert_kernel_result(A, out):
    """That the record of a wide system A of full row rank, from the QR of
    A^H alone, holds the kernel's result: the vector of ``svd_real`` or
    ``svd_complex``'s ``smallest()`` bit for bit, a lower bound at most the
    kernel's sigma_{p-1}, and sigma_min within 8 eps ``scale`` of the
    kernel's, with no sweeps."""
    kernel = (svd_complex if np.iscomplexobj(A) else svd_real)(A).smallest()
    assert A.shape[0] < A.shape[1] and out.sweeps == 0
    assert same_bits(out.vector, kernel.vector)
    assert out.lower <= kernel.lower
    assert abs(out.sigma_min - kernel.sigma_min) <= 8 * EPS * out.scale


def record_bits(solve):
    """The fields of a ``SmallestVector``, its vector as bytes."""
    return (solve.vector.tobytes(), solve.sigma_min, solve.lower, solve.scale,
            solve.sweeps, solve.rotations, solve.route)


def vector_angle(u, v):
    """||v - u p / |p|||, p = u^H v: the distance between two unit vectors
    once the phase that separates them is taken out."""
    p = np.vdot(u, v)
    return np.linalg.norm(v - u * (p / abs(p)))


class TestWeightedQR:
    """A modified Lawson fit with a step 2 factors its first system once,
    B0 = Q0 R0, and solves each later step's A = D B0 from the triangle
    chol(G^T G)^T R0, G = D Q0, under the route's certificate; a step it
    does not certify is solved as before, bit for bit."""

    def test_figure_route_steps(self, monkeypatch):
        # the route certifies all 19 later steps of the figure lawson_mod
        # fit: each lower bound is at most the kernel's sigma_{m-1}, and each
        # vector lies within the record's Wedin angle of the vector that the
        # step's system alone gives (0.020 of it at most)
        calls = record_warm_steps(monkeypatch)
        _, trace = aaa_fit(FIT_GRID, FIGURE_FITS["lawson_mod"])
        assert [st.solve.route for st in trace.lawson.steps] == [False] + [True] * 19
        route = [(A, out) for A, out in calls if out is not None and out.route]
        assert len(route) == 19
        for A, out in route:
            assert out.lower <= svd_real(A).smallest().lower
            alone = lawson.expanded_coefficients(A, "modified")[2]
            assert not alone.route
            assert vector_angle(alone.vector, out.vector) <= out.wedin

    def test_graded_weights_refused(self, monkeypatch):
        # three unit weights and the rest 1e-300 leave G = D Q0 of rank 3
        # in 8 columns, and R_G has no inverse; with the rest 1e-15 it has
        # one, but s^2 <= 2 delta.  Either way the route refuses before its
        # eigensolve, and the step's record is the one its system alone
        # gives, bit for bit
        def eigensolve(*args):
            raise AssertionError("the route reached its eigensolve")

        rng = np.random.default_rng(131)
        x, y = separated_nodes(rng, 20, 4)
        xa = np.concatenate([x, y])
        qr = linalg.WeightedQR(bhat(NodeSet(test_nodes=xa, support_nodes=y)))
        unit = rng.choice(xa.size, 3, replace=False)
        for rest, inverted in ((1e-300, False), (1e-15, True)):
            mu = np.full(xa.size, rest)
            mu[unit] = 1.0
            A = bhat(NodeSet(test_nodes=xa, support_nodes=y, weights=mu))
            inverses = []

            def inverse(R, invert=linalg._triangular_inverse):
                inverses.append(invert(R))
                return inverses[-1]
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_triangular_inverse", inverse)
                patch.setattr(linalg, "_eigensolve", eigensolve)
                assert qr.solve(A, mu) is None
            assert [X is not None for X in inverses] == [inverted]
            got = lawson.expanded_coefficients(A, "modified", qr, mu)
            want = lawson.expanded_coefficients(A, "modified")
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert record_bits(got[2]) == record_bits(want[2])

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_first_steps_keep_their_bits(self, monkeypatch, variant):
        # a one-step fit forms no Q0, and nor does an original fit; a
        # modified fit with a step 2 forms one, whose R0 has _r_factor's
        # bits, so step 1's record is the one the system alone gives
        made = []

        class Counted(linalg.WeightedQR):
            def __init__(self, B):
                made.append(B.shape)
                super().__init__(B)
        monkeypatch.setattr(lawson, "WeightedQR", Counted)
        y = figure_support(variant)
        x = FIT_GRID[~np.isin(FIT_GRID, y)]
        nodes = NodeSet(test_nodes=np.concatenate([x, y]), support_nodes=y)
        B0 = bhat(nodes) if variant == "modified" else expanded_loewner(nodes)
        alone = lawson.expanded_coefficients(B0, variant)[2]
        for n_lawson in (1, 3):
            _, trace = lawson.lawson_fit(x, y, lawson.LawsonConfig(n_lawson=n_lawson,
                                                                   variant=variant))
            assert record_bits(trace.steps[0].solve) == record_bits(alone)
        assert made == ([B0.shape] if variant == "modified" else [])
        if variant == "modified":
            assert same_bits(linalg.WeightedQR(B0).R, linalg._r_factor(B0))

    def test_original_fit_keeps_its_path(self, monkeypatch):
        # the figure lawson_orig fit forms no Q0, and each of its steps is
        # the record that its system alone gives, bit for bit, in the
        # Fortran order the fit builds it in (||A v|| has the bits of A's
        # layout)
        def refuse(B):
            raise AssertionError("an original fit formed Q0")
        monkeypatch.setattr(lawson, "WeightedQR", refuse)
        calls = record_warm_steps(monkeypatch)
        _, trace = aaa_fit(FIT_GRID, FIGURE_FITS["lawson_orig"])
        steps = calls[-len(trace.lawson.steps):]
        assert len(steps) == 20
        for (A, _), st in zip(steps, trace.lawson.steps):
            alone = linalg.smallest_right_vector(np.asfortranarray(A))
            assert record_bits(st.solve) == record_bits(alone)

    def test_factors_have_numpy_qr_bits(self):
        # Q0 and R0, from ?geqrf and ?orgqr in place on one copy, are
        # np.linalg.qr(B0)'s factors bit for bit on the figure lawson_mod
        # system, Q0 in the Fortran order the route reads
        y = figure_support("modified")
        xa = np.concatenate([FIT_GRID[~np.isin(FIT_GRID, y)], y])
        B0 = bhat(NodeSet(test_nodes=xa, support_nodes=y))
        qr = linalg.WeightedQR(B0)
        Q, R = np.linalg.qr(B0)
        assert same_bits(qr.Q, np.asfortranarray(Q)) and same_bits(qr.R, R)

    def test_lapack_lite_calls_of_a_route_step(self, monkeypatch):
        # a route step takes nothing from lapack_lite, no QR of its system
        # and no Q: the figure lawson_mod system, weighted at random
        y = figure_support("modified")
        xa = np.concatenate([FIT_GRID[~np.isin(FIT_GRID, y)], y])
        qr = linalg.WeightedQR(bhat(NodeSet(test_nodes=xa, support_nodes=y)))
        mu = 10.0 ** np.random.default_rng(137).uniform(-2, 0, xa.size)
        A = bhat(NodeSet(test_nodes=xa, support_nodes=y, weights=mu))
        lite, calls = linalg.lapack_lite, []

        def counted(name):
            def call(*args):
                calls.append(name)
                return getattr(lite, name)(*args)
            return call
        names = [name for name in dir(lite) if name[0] in "dz"]
        monkeypatch.setattr(linalg, "lapack_lite",
                            types.SimpleNamespace(**{name: counted(name) for name in names}))
        out = linalg.smallest_right_vector(A, qr, mu)
        assert out.route and calls == []


def audit_fits(count):
    """The first ``count`` fits of the random-fit audit, as (nodes, config),
    drawn from one generator seeded 7 in the audit's order."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n = int(rng.integers(20, 400))
        w = float(rng.uniform(1, 30))
        x = np.sort(rng.uniform(-w, w, n)) if rng.random() < .5 else np.linspace(-w, w, n)
        x = np.unique(x)
        m_max = int(rng.integers(3, min(30, x.size - 1)))
        variant = "modified" if rng.random() < .5 else "original"
        n_lawson = int(rng.integers(0, 6))
        tol = 0 if rng.random() < .5 else 1e-13
        yield x, AaaConfig(m_max=m_max, tol=tol, variant=variant, n_lawson=n_lawson)


def audit_counts(calls):
    """Per fit of the first 20 audit fits: whether it completed, and its
    certified and uncertified warm steps, as ``record_warm_steps``' list
    ``calls`` grows by them."""
    out = []
    for x, config in audit_fits(20):
        first = len(calls)
        try:
            aaa_fit(x, config)
            completed = True
        except InvalidInputError:
            completed = False
        warm = [rec for _, rec in calls[first:]]
        out.append((completed, sum(r is not None for r in warm), sum(r is None for r in warm)))
    return out


@functools.lru_cache(maxsize=1)
def audit_records():
    """The first 20 audit fits, run twice: the per-fit counts of each run
    (``audit_counts``) and the first run's ``(A, record, kernel)`` for every
    certified warm step, ``kernel`` the Jacobi kernel's record of A."""
    with pytest.MonkeyPatch.context() as patch:
        calls = record_warm_steps(patch)
        counts = audit_counts(calls)
        audited = calls[:]
        again = audit_counts(calls)
    return counts, again, [(A, out, (svd_complex if np.iscomplexobj(A) else svd_real)(A).smallest())
                           for A, out in audited if out is not None]


def test_random_fit_audit():
    # off the figure grid: a fit either completes or is rejected for its
    # input, every certified vector lies within twice the kernel's Wedin
    # angle of the kernel's vector on the same system, and a second run
    # certifies and rejects the same steps
    counts, again, certified = audit_records()
    assert again == counts
    # 19 fits complete, with 273 records the kernel did not make (11 of
    # them modified Lawson steps by the route, which refuses 2, and one a
    # wide step's) and 51 kernel runs under two OpenBLAS 0.3.31 threads
    # (272 and 52, with the wide step a kernel run, under one and two); the
    # bounds only keep the checks below from passing on few steps
    assert sum(c[0] for c in counts) >= 15 and sum(c[1] for c in counts) >= 100
    assert sum(out.route for _, out, _ in certified) >= 5
    for _, out, kernel in certified:
        p = np.vdot(kernel.vector, out.vector)
        angle = np.linalg.norm(out.vector - kernel.vector * (p / abs(p)))
        assert angle <= 2 * kernel.wedin


def test_route_records_within_their_wedin(monkeypatch):
    # three route records of the random-fit audit, two in fit 46 and one in
    # fit 56, lie 11.1, 89.4 and 20.0 kernel Wedin angles from the kernel's
    # vector: each lies within its own wedin, which holds the route's terms
    # h + t, and outside the angle that eps scale alone gives
    fits = list(audit_fits(57))
    calls = record_warm_steps(monkeypatch)
    for i in (46, 56):
        aaa_fit(*fits[i])
    far = []
    for A, out in calls:
        if out is None or not out.route:
            continue
        kernel = svd_real(A).smallest()
        angle = vector_angle(kernel.vector, out.vector)
        assert out.terms > 0 and angle <= out.wedin
        if angle > 2 * kernel.wedin:
            far.append(angle > EPS * out.scale / (out.lower - out.sigma_min))
    assert far == [True] * 3


def test_random_fit_lower_bounds():
    # the oracle check: on the first 20 audit fits no certified warm
    # record's lower bound, own-QR or route, exceeds the Jacobi kernel's
    # sigma_{m-1} of the same system, which the kernel finds to high
    # relative accuracy
    _, _, certified = audit_records()
    assert all(out.lower <= kernel.lower for _, out, kernel in certified)


def aaa_iterate(support, solve, variant):
    """An AAA iteration's approximant from its step record: its support
    nodes with w = i K v (modified) or w = v (original), v its vector."""
    if variant == "modified":
        return CayleyApproximant(support, 1j * phase_entries(support) * solve.vector)
    return BarycentricInterpolant(support, solve.vector)


def test_variants_agree_until_rounding_decides():
    # where sigma_min is simple the original minimiser has the unitary
    # structure, so both variants fit the same approximant.  On the first 40
    # audit node sets, AAA alone with each set's m_max and tol, the two pick
    # the same support nodes up to the first degenerate step of either or
    # the first divergence, and each divergence is a tie: the two picks'
    # errors, under either variant, differ by at most 2 delta, delta the
    # largest difference between the two variants' values at the test
    # nodes.  Up to there the coefficients w agree up to a global phase
    # within 8 times the sum of the two steps' Wedin angles (6.0 times at
    # most over all 150 audit node sets)
    ties = compared = 0
    for x, config in audit_fits(40):
        mod, orig = (aaa_fit(x, replace(config, variant=variant, n_lawson=0))[1].iterations
                     for variant in ("modified", "original"))
        for m, (a, b) in enumerate(zip(mod, orig), 1):
            support = np.array([st.node for st in mod[:m]])
            if a.node != b.node:
                left = x[~np.isin(x, support[:-1])]
                values = [aaa_iterate(support[:-1], st.solve, variant).eval(left)
                          for st, variant in ((mod[m - 2], "modified"), (orig[m - 2], "original"))]
                delta = np.max(np.abs(values[0] - values[1]))
                picks = np.searchsorted(left, [a.node, b.node])
                for r in values:
                    errors = np.abs(np.exp(1j * left[picks]) - r[picks])
                    assert abs(errors[0] - errors[1]) <= 2 * delta
                ties += 1
                break
            if a.solve.degenerate or b.solve.degenerate:
                break
            if m > 1:  # one column leaves no vector to compare
                w = 1j * phase_entries(support) * a.solve.vector
                p = np.vdot(w, b.solve.vector)
                gap = np.linalg.norm(b.solve.vector - w * (p / abs(p)))
                assert gap <= 8 * (a.solve.wedin + b.solve.wedin)
                compared += 1
        else:
            assert len(mod) == len(orig)
    # 12 ties and 433 compared steps under one and two OpenBLAS 0.3.31
    # threads; the bounds only keep the checks above from passing on few
    assert ties >= 5 and compared >= 300
