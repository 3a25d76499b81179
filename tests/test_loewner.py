"""Loewner-type matrices: constructors, distinguished vectors, identities."""

import re
import warnings

import numpy as np
import pytest

from unirat import (
    NodeSet,
    bhat,
    cauchy,
    expanded_loewner,
    loewner,
    min_singular_coefficients,
    min_singular_pair,
    modified_cauchy,
    phase_diagonals,
    rescaled_loewner,
    svd_complex,
    svd_real,
    weighted_loewner,
)
from unirat import lawson, linalg
from unirat.errors import InvalidInputError, NodeCollisionError
from unirat.lawson import LawsonConfig, lawson_fit
from unirat.linalg import EPS, smallest_right_vector
from unirat.loewner import _expanded_pair, check_differences, phase_entries

from conftest import load_script, separated_nodes


class TestNodeSet:
    def test_defaults_and_properties(self):
        ns = NodeSet(test_nodes=[1.0, 2.0], support_nodes=[0.0])
        assert ns.n == 2 and ns.m == 1
        assert np.array_equal(ns.weights, [1.0, 1.0])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            NodeSet(test_nodes=[1.0, 1.0], support_nodes=[0.0])
        with pytest.raises(InvalidInputError):
            NodeSet(test_nodes=[1.0], support_nodes=[0.0, 0.0])
        with pytest.raises(InvalidInputError):
            NodeSet(test_nodes=[np.nan], support_nodes=[0.0])
        with pytest.raises(InvalidInputError):
            NodeSet(test_nodes=[1.0], support_nodes=[0.0], weights=[-1.0])
        with pytest.raises(InvalidInputError):
            NodeSet(test_nodes=[1.0, 2.0], support_nodes=[0.0], weights=[1.0])


class TestPhaseEntries:
    def test_degenerate_branch(self):
        assert phase_entries(0.0) == 1j
        # fl(2pi) lands within the degeneracy threshold of the exact period
        assert phase_entries(2 * np.pi) == 1j
        assert complex(phase_entries(np.array([0.0]))[0]) == 1j

    def test_pi(self):
        assert abs(phase_entries(np.pi) - 1.0) <= 2 * EPS

    def test_complex_angles_rejected(self):
        # a plain cast to float would keep the real parts, warning only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="must be real numbers"):
                phase_entries(np.array([0.5 + 1j, 2.0]))

    def test_half_pi(self):
        k = phase_entries(np.pi / 2)
        assert abs(k - (1 + 1j) / np.sqrt(2)) <= 4 * EPS
        assert abs(np.exp(1j * np.pi / 2) * k + np.conj(k)) <= 4 * EPS

    def test_identity_dense(self):
        th = np.linspace(-40, 40, 200001)
        K = phase_entries(th)
        assert np.max(np.abs(np.abs(K) - 1.0)) <= 2 * EPS
        assert np.max(np.abs(np.exp(1j * th) * K + np.conj(K))) <= 2 * EPS

    def test_diagonals_identities(self):
        rng = np.random.default_rng(2)
        x, y = separated_nodes(rng, 8, 5)
        ph = phase_diagonals(NodeSet(test_nodes=x, support_nodes=y))
        assert np.max(np.abs(ph.S_f * ph.K + np.conj(ph.K))) <= 2 * EPS
        assert np.max(np.abs(ph.S_F * ph.R + np.conj(ph.R))) <= 2 * EPS


class TestCauchy:
    def test_row(self):
        C = cauchy(NodeSet(test_nodes=[2.0], support_nodes=[0.0, 1.0]))
        assert np.array_equal(C, [[0.5, 1.0]])

    def test_column(self):
        C = cauchy(NodeSet(test_nodes=[1.0, -1.0], support_nodes=[0.0]))
        assert np.array_equal(C, [[1.0], [-1.0]])

    def test_collision(self):
        with pytest.raises(NodeCollisionError) as exc:
            cauchy(NodeSet(test_nodes=[0.0], support_nodes=[0.0]))
        assert exc.value.test_node == 0.0


class TestCheckDifferences:
    @pytest.mark.parametrize("nodes, pair", [
        ([3.0, 2e-310, 1.0, 0.0], "0.0 and 2e-310"),
        ([5.0, -1e308, 1e308], "-1e+308 and 1e+308"),
    ])
    def test_pair_named(self, nodes, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=re.escape(f"nodes {pair}: ")):
                check_differences(np.array(nodes))

    def test_range_edges_accepted(self):
        # 1 / 1e-308 and 1e308 - (-7e307) are finite
        check_differences(np.array([0.0, 1e-308, 1.0]))
        check_differences(np.array([-7e307, 1e308]))

    def test_node_sets_still_accept_close_nodes(self):
        # the check belongs to the fits: forms and NodeSet take such nodes
        nodes = NodeSet(test_nodes=[0.0, 1.0], support_nodes=[1e-310])
        assert nodes.m == 1


class TestLoewner:
    def test_pi_entry(self):
        L = loewner(NodeSet(test_nodes=[np.pi], support_nodes=[0.0]))
        assert abs(L[0, 0] - (-2 / np.pi)) <= 4 * EPS

    def test_symmetric_entry(self):
        t = 0.7
        L = loewner(NodeSet(test_nodes=[t], support_nodes=[-t]))
        assert abs(L[0, 0] - 1j * np.sin(t) / t) <= 4 * EPS

    def test_factored_form(self):
        rng = np.random.default_rng(4)
        x, y = separated_nodes(rng, 5, 3)
        ns = NodeSet(test_nodes=x, support_nodes=y)
        L = loewner(ns)
        C = cauchy(ns)
        S_F = np.exp(1j * x)
        S_f = np.exp(1j * y)
        factored = S_F[:, None] * C - C * S_f[None, :]
        assert np.max(np.abs(L - factored)) <= 4 * EPS


class TestWeightedLoewner:
    def test_unit_weights(self):
        rng = np.random.default_rng(6)
        x, y = separated_nodes(rng, 4, 2)
        ns = NodeSet(test_nodes=x, support_nodes=y)
        assert np.array_equal(weighted_loewner(ns), loewner(ns))

    def test_row_scaling(self):
        x, y = [1.0, 2.0], [0.0]
        mu = [4.0, 1.0]
        Lmu = weighted_loewner(NodeSet(test_nodes=x, support_nodes=y, weights=mu))
        L = loewner(NodeSet(test_nodes=x, support_nodes=y))
        assert np.array_equal(Lmu[0], 2.0 * L[0])
        assert np.array_equal(Lmu[1], L[1])

    def test_construction_identity(self):
        rng = np.random.default_rng(8)
        x, y = separated_nodes(rng, 6, 3)
        mu = 10.0 ** rng.uniform(-3, 0, size=6)
        ns = NodeSet(test_nodes=x, support_nodes=y, weights=mu)
        assert np.array_equal(
            weighted_loewner(ns), np.sqrt(mu)[:, None] * loewner(ns)
        )


class TestRescaledLoewner:
    def test_singular_values_match_loewner(self):
        rng = np.random.default_rng(10)
        x, y = separated_nodes(rng, 9, 4)
        ns = NodeSet(test_nodes=x, support_nodes=y)
        s_hat = svd_real(rescaled_loewner(ns)).singular_values
        s = svd_complex(loewner(ns)).singular_values
        assert np.max(np.abs(s_hat - s)) <= 8 * EPS * s[0]

    def test_scalar_case(self):
        lhat = rescaled_loewner(NodeSet(test_nodes=[np.pi], support_nodes=[0.0]))
        assert abs(lhat[0, 0] - (-2 / np.pi)) <= 4 * EPS

    def test_period_shift(self):
        x = np.array([1.0, 2.5])
        y = np.array([-1.5, 0.25, 4.0])
        a = rescaled_loewner(NodeSet(test_nodes=x, support_nodes=y))
        b = rescaled_loewner(
            NodeSet(test_nodes=x + 2 * np.pi, support_nodes=y + 2 * np.pi)
        )
        assert np.max(np.abs(a - b)) <= 4 * EPS

    def test_realness_of_phase_rescaling(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, m = int(rng.integers(2, 20)), int(rng.integers(1, 7))
            x, y = separated_nodes(rng, n, m)
            ns = NodeSet(test_nodes=x, support_nodes=y)
            ph = phase_diagonals(ns)
            L = loewner(ns)
            T = -1j * (ph.R[:, None] * L * ph.K[None, :])
            assert np.max(np.abs(T.imag)) <= 8 * EPS * np.max(np.abs(L))


class TestMinSingularCoefficients:
    def test_phase_residual(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(max(m - 1, 2), 20))
            x, y = separated_nodes(rng, n, m)
            ns = NodeSet(test_nodes=x, support_nodes=y)
            res = min_singular_coefficients(rescaled_loewner(ns), phase_diagonals(ns))
            w = res.coefficients
            assert abs(np.linalg.norm(w) - 1.0) <= 4 * EPS
            assert np.max(np.abs(np.exp(1j * y) * w - np.conj(w))) <= 4 * EPS

    def test_single_column(self):
        ns = NodeSet(test_nodes=[1.0, 2.0, 3.0], support_nodes=[0.0])
        res = min_singular_coefficients(rescaled_loewner(ns), phase_diagonals(ns))
        assert res.coefficients.shape == (1,)
        assert abs(abs(res.coefficients[0]) - 1.0) <= 2 * EPS
        k = phase_entries(0.0)
        assert min(abs(res.coefficients[0] - 1j * k),
                   abs(res.coefficients[0] + 1j * k)) <= 4 * EPS

    def test_nullspace_case(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            x, y = separated_nodes(rng, m - 1, m)
            ns = NodeSet(test_nodes=x, support_nodes=y)
            res = min_singular_coefficients(rescaled_loewner(ns), phase_diagonals(ns))
            L = loewner(ns)
            s1 = res.singular_values[0]
            assert np.linalg.norm(L @ res.coefficients) <= 64 * EPS * s1

    def test_shape_guard(self):
        ns = NodeSet(test_nodes=[1.0], support_nodes=[0.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            min_singular_coefficients(rescaled_loewner(ns), phase_diagonals(ns))

    def test_transport_and_zeta(self):
        # iK Vhat transports right singular vectors of Lhat to those of L,
        # and any real combination keeps the conjugate-phase identity
        rng = np.random.default_rng(18)
        x, y = separated_nodes(rng, 12, 5)
        ns = NodeSet(test_nodes=x, support_nodes=y)
        ph = phase_diagonals(ns)
        L = loewner(ns)
        res = svd_real(rescaled_loewner(ns))
        k = res.left_vectors.shape[1]
        lhs = L @ (1j * ph.K[:, None] * res.right_vectors[:, :k])
        rhs = (-np.conj(ph.R)[:, None] * res.left_vectors) * res.singular_values[:k]
        assert np.max(np.abs(lhs - rhs)) <= 64 * EPS * res.singular_values[0]
        for _ in range(20):
            z = rng.standard_normal(5)
            z /= np.linalg.norm(z)
            w = 1j * ph.K * (res.right_vectors @ z)
            assert np.max(np.abs(np.exp(1j * y) * w - np.conj(w))) <= 4 * EPS

    def test_loewner_action(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            n, m = int(rng.integers(2, 20)), int(rng.integers(1, 7))
            x, y = separated_nodes(rng, n, m)
            ns = NodeSet(test_nodes=x, support_nodes=y)
            L = loewner(ns)
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            D = x[:, None] - y[None, :]
            d = (w[None, :] / D).sum(axis=1)
            nv = ((np.exp(1j * y) * w)[None, :] / D).sum(axis=1)
            ref = np.exp(1j * x) * d - nv
            tol = 32 * EPS * np.linalg.norm(w) * np.max(np.abs(L))
            assert np.max(np.abs(L @ w - ref)) <= tol


class TestModifiedCauchy:
    def test_overlap_split(self):
        ns = NodeSet(test_nodes=[0.0, 2.0], support_nodes=[0.0, 1.0])
        C = modified_cauchy(ns)
        assert np.array_equal(C[0], [1.0, 0.0])
        assert np.array_equal(C[1], [0.5, 1.0])

    def test_no_overlap_reduction(self):
        ns = NodeSet(test_nodes=[3.0, 4.0], support_nodes=[0.0, 1.0])
        assert np.array_equal(modified_cauchy(ns), cauchy(ns))

    def test_full_overlap_identity(self):
        y = [0.0, 1.0, 2.0]
        ns = NodeSet(test_nodes=y, support_nodes=y)
        assert np.array_equal(modified_cauchy(ns), np.eye(3))


class TestExpandedLoewner:
    def test_fortran_order_same_bits(self):
        # both expanded systems are written into one Fortran-ordered array,
        # with the bits of the two blocks stacked side by side; a test node
        # on a support node gives a unit row
        rng = np.random.default_rng(20)
        x, y = separated_nodes(rng, 12, 4)
        x[3] = y[1]
        ns = NodeSet(test_nodes=x, support_nodes=y, weights=10.0 ** rng.uniform(-3, 0, 12))
        M = np.sqrt(ns.weights)[:, None] * modified_cauchy(ns)
        ph = phase_diagonals(ns)
        for A, ref in ((bhat(ns), np.hstack([ph.R.real[:, None] * M, -ph.R.imag[:, None] * M])),
                       (expanded_loewner(ns), np.hstack([M, -ph.S_F[:, None] * M]))):
            assert A.flags.f_contiguous
            assert A.dtype == ref.dtype and np.array_equal(A, ref)
            assert np.ascontiguousarray(A).tobytes() == ref.tobytes()

    def test_action_reproduces_linearized_error(self):
        rng = np.random.default_rng(22)
        x, y = separated_nodes(rng, 7, 3)
        mu = 10.0 ** rng.uniform(-2, 0, size=7)
        ns = NodeSet(test_nodes=x, support_nodes=y, weights=mu)
        X = expanded_loewner(ns)
        alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = X @ np.concatenate([alpha, beta])
        D = x[:, None] - y[None, :]
        nb = (alpha[None, :] / D).sum(axis=1)
        db = (beta[None, :] / D).sum(axis=1)
        ref = np.sqrt(mu) * (nb - np.exp(1j * x) * db)
        scale = np.max(np.abs(X)) * np.linalg.norm(np.concatenate([alpha, beta]))
        assert np.max(np.abs(got - ref)) <= 32 * EPS * scale

    def test_overlap_row(self):
        y = np.array([0.5, 1.5])
        ns = NodeSet(test_nodes=[0.5, 3.0], support_nodes=y, weights=[4.0, 1.0])
        X = expanded_loewner(ns)
        alpha = np.array([1 + 2j, 0.5j])
        beta = np.array([-1.0, 2 - 1j])
        got = (X @ np.concatenate([alpha, beta]))[0]
        ref = 2.0 * (alpha[0] - np.exp(1j * 0.5) * beta[0])
        assert abs(got - ref) <= 16 * EPS * abs(ref)

    def test_cayley_symmetry_rows(self):
        # gamma = [conj(beta); beta]: row k has magnitude |2 Re(R_k* (M beta)_k)|,
        # which follows from S_F R = -R* (multiply the row by the unit factor R_k)
        rng = np.random.default_rng(24)
        x, y = separated_nodes(rng, 6, 3)
        ns = NodeSet(test_nodes=x, support_nodes=y)
        X = expanded_loewner(ns)
        beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        got = np.abs(X @ np.concatenate([np.conj(beta), beta]))
        R = phase_entries(x)
        M = modified_cauchy(ns)
        ref = np.abs(2.0 * np.real(np.conj(R) * (M @ beta)))
        assert np.max(np.abs(got - ref)) <= 64 * EPS * np.max(np.abs(X))


class TestBhat:
    def test_singular_value_relation(self):
        rng = np.random.default_rng(26)
        x, y = separated_nodes(rng, 8, 3)
        mu = 10.0 ** rng.uniform(-2, 0, size=8)
        ns = NodeSet(test_nodes=x, support_nodes=y, weights=mu)
        sB = svd_real(bhat(ns)).singular_values
        sX = svd_complex(expanded_loewner(ns)).singular_values
        assert np.max(np.abs(np.sqrt(2) * sB - sX)) <= 8 * EPS * sX[0]

    def test_real_phase_row(self):
        ns = NodeSet(test_nodes=[np.pi, 5.0], support_nodes=[0.0, 1.0])
        B = bhat(ns)
        M = modified_cauchy(ns)
        r0 = phase_entries(np.pi)
        assert abs(r0 - 1.0) <= 2 * EPS
        assert np.max(np.abs(B[0, :2] - r0.real * M[0])) <= 2 * EPS
        assert np.max(np.abs(B[0, 2:] + r0.imag * M[0])) <= 2 * EPS

    def test_scalar_half_pi(self):
        ns = NodeSet(test_nodes=[np.pi / 2], support_nodes=[3.0])
        B = bhat(ns)
        M = modified_cauchy(ns)[0, 0]
        assert abs(B[0, 0] - M / np.sqrt(2)) <= 4 * EPS * abs(M)
        assert abs(B[0, 1] + M / np.sqrt(2)) <= 4 * EPS * abs(M)


class TestMinSingularPair:
    def _pair_from_diag(self, diag):
        return min_singular_pair(np.diag(diag))

    def test_real_branch(self):
        # smallest right singular vector of diag(0.1,2,3,4) is e_1 = [a; b]
        # with a = e_1, b = 0
        alpha, beta = self._pair_from_diag([0.1, 2.0, 3.0, 4.0])
        e1 = np.array([1.0, 0.0]) / np.sqrt(2)
        assert np.allclose(alpha, e1, atol=4 * EPS)
        assert np.allclose(beta, e1, atol=4 * EPS)

    def test_imaginary_branch(self):
        alpha, beta = self._pair_from_diag([2.0, 3.0, 0.1, 4.0])
        e1 = np.array([1.0, 0.0])
        assert np.allclose(alpha, 1j * e1 / np.sqrt(2), atol=4 * EPS)
        assert np.allclose(beta, -1j * e1 / np.sqrt(2), atol=4 * EPS)
        assert abs(alpha[0] - np.conj(beta[0])) <= 4 * EPS

    def test_conjugate_pairing_random(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            n, m = int(rng.integers(2, 20)), int(rng.integers(1, 7))
            x, y = separated_nodes(rng, n, m)
            mu = 10.0 ** rng.uniform(-3, 0, size=n)
            ns = NodeSet(test_nodes=x, support_nodes=y, weights=mu)
            alpha, beta = min_singular_pair(bhat(ns))
            assert np.max(np.abs(alpha - np.conj(beta))) <= 4 * EPS

    def test_q_map_preserves_norm(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            g = rng.standard_normal(24)
            g /= np.linalg.norm(g)
            a = (g[:12] + 1j * g[12:]) / np.sqrt(2)
            b = (g[:12] - 1j * g[12:]) / np.sqrt(2)
            norm = np.sqrt(np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2)
            assert abs(norm - 1.0) <= 4 * EPS

    def test_odd_columns_rejected(self):
        with pytest.raises(InvalidInputError):
            min_singular_pair(np.ones((2, 3)))


def small_systems_bhat(seed):
    """The Bhat of each of the 40 systems that the benchmark's small-systems
    workload draws at ``seed``."""
    workloads = load_script("bench", "workloads.py")
    return [bhat(NodeSet(test_nodes=x, support_nodes=y, weights=mu))
            for x, y, mu in workloads.SmallSystems().setup(seed, None)["systems"]]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMinSingularPairSolve:
    """``min_singular_pair`` is a modified Lawson step's solve: the
    eigensolve's certified vector, else the kernel's."""

    @pytest.mark.parametrize("n, m", [(11, 3), (8, 4), (5, 4)], ids=["tall", "square", "wide"])
    def test_kernel_fallback_keeps_the_kernel_bits(self, monkeypatch, n, m):
        # with no step certified, the pair is the kernel's last right vector
        # of svd_real, mapped, bit for bit
        rng = np.random.default_rng(40 + n)
        x, y = separated_nodes(rng, n, m)
        B = bhat(NodeSet(test_nodes=x, support_nodes=y, weights=10.0 ** rng.uniform(-3, 0, n)))
        assert B.shape == (n, 2 * m)
        monkeypatch.setattr(linalg, "_eigensolve", lambda A, R: None)
        expected = _expanded_pair(svd_real(B).smallest().vector, "modified")
        for got, want in zip(min_singular_pair(B), expected):
            assert same_bits(got, want)

    def test_equals_the_first_lawson_step(self, monkeypatch):
        # the fit's first step solves bhat of its nodes, the support nodes
        # appended to the test nodes, at unit weights
        rng = np.random.default_rng(41)
        x, y = separated_nodes(rng, 12, 4)
        steps, solve_step = [], lawson.expanded_coefficients

        def record(A, variant, *args):
            steps.append(solve_step(A, variant, *args))
            return steps[-1]
        monkeypatch.setattr(lawson, "expanded_coefficients", record)
        lawson_fit(x, y, LawsonConfig(n_lawson=1, variant="modified"))
        [(alpha, beta, solve)] = steps
        assert solve.sweeps == 0  # certified, so the eigensolve's vector
        got = min_singular_pair(bhat(NodeSet(test_nodes=np.concatenate([x, y]),
                                             support_nodes=y)))
        assert same_bits(got[0], alpha) and same_bits(got[1], beta)

    def test_certified_vectors_lie_within_wedin(self):
        # on the benchmark's seed-1 systems, each certified vector is within
        # its Wedin angle of the kernel's, and its pair is the one returned;
        # both vectors are real and in the kernel's phase, so ||u - v|| is
        # 2 sin of half their angle
        certified = 0
        for B in small_systems_bhat(1):
            solve = smallest_right_vector(B)
            if solve.sweeps:
                continue
            certified += 1
            u, v = solve.vector, svd_real(B).smallest().vector
            assert np.linalg.norm(u - v) <= solve.wedin
            for got, want in zip(min_singular_pair(B), _expanded_pair(u, "modified")):
                assert same_bits(got, want)
        assert certified >= 20

    @pytest.mark.parametrize("B", [
        np.ones(4), np.zeros((0, 4)), np.zeros((4, 0)), np.ones((4, 3)),
        np.array([[1.0, 2.0], [np.nan, 1.0], [3.0, 4.0]]),
        np.array([[1.0, 2.0], [3.0, np.inf]]),
        np.array([[1.0, 2.0, -np.inf, 4.0]]),
    ], ids=["1-D", "no rows", "no columns", "odd columns", "NaN", "inf", "-inf wide"])
    def test_invalid_input_rejected(self, B):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                min_singular_pair(B)
