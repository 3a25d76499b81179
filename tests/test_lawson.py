"""Lawson re-weighted minimax phase: weight rule, variants, optimality."""

import warnings

import numpy as np
import pytest

from unirat import (
    CayleyApproximant,
    LawsonConfig,
    NodeSet,
    NonInterpolatoryApproximant,
    bhat,
    expanded_loewner,
    lawson_fit,
    lawson_weight_update,
    min_singular_pair,
    svd_complex,
    svd_real,
    unitarity_deviation,
)
from unirat.errors import InvalidInputError
from unirat.linalg import EPS

from conftest import separated_nodes


class TestWeightUpdate:
    def test_direct_arithmetic(self):
        out = lawson_weight_update([1.0, 1.0], [0.5, 0.25])
        assert np.array_equal(out, [1.0, 0.5])

    def test_equal_errors_fixed_point(self):
        out = lawson_weight_update([1.0, 1.0, 1.0], [0.3, 0.3, 0.3])
        assert np.array_equal(out, [1.0, 1.0, 1.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            mu = rng.uniform(0.0, 1.0, n)
            eps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = lawson_weight_update(mu, eps)
            prod = np.array([mu[i] * abs(complex(eps[i])) for i in range(n)])
            top = max(prod)
            assert np.allclose(got, prod / top, rtol=4 * EPS, atol=0.0)

    def test_exact_fit_signal(self):
        assert lawson_weight_update([1.0, 0.0], [0.0, 5.0]) is None

    def test_shape_guard(self):
        with pytest.raises(InvalidInputError):
            lawson_weight_update([1.0], [1.0, 2.0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            LawsonConfig(n_lawson=0)
        with pytest.raises(InvalidInputError):
            LawsonConfig(n_lawson=1, variant="other")


class TestLawsonFit:
    def test_first_step_matches_expanded_svd(self):
        # one step with unit weights reproduces the distinguished pair from
        # the real expanded matrix over test nodes + appended support nodes
        rng = np.random.default_rng(72)
        x, y = separated_nodes(rng, 10, 3)
        approx, trace = lawson_fit(x, y, LawsonConfig(n_lawson=1))
        xa = np.concatenate([x, y])
        ns = NodeSet(test_nodes=xa, support_nodes=y)
        alpha, beta = min_singular_pair(bhat(ns))
        assert np.max(np.abs(alpha - np.conj(beta))) <= 4 * EPS
        w = beta / np.linalg.norm(beta)
        assert np.max(np.abs(approx.coefficients - w)) <= 4 * EPS

    def test_modified_iterates_stay_unitary(self):
        rng = np.random.default_rng(74)
        x, y = separated_nodes(rng, 14, 4)
        approx, trace = lawson_fit(x, y, LawsonConfig(n_lawson=5))
        assert isinstance(approx, CayleyApproximant)
        grid = np.linspace(-20, 20, 2001)
        assert unitarity_deviation(approx, grid) <= 2 * EPS
        assert len(trace.steps) == 5

    def test_original_variant_returns_pair(self):
        rng = np.random.default_rng(76)
        x, y = separated_nodes(rng, 10, 3)
        approx, _ = lawson_fit(x, y, LawsonConfig(n_lawson=2, variant="original"))
        assert isinstance(approx, NonInterpolatoryApproximant)

    def test_variant_singular_values_agree(self):
        rng = np.random.default_rng(78)
        x, y = separated_nodes(rng, 9, 3)
        mu = 10.0 ** rng.uniform(-2, 0, size=9)
        ns = NodeSet(test_nodes=x, support_nodes=y, weights=mu)
        sB = svd_real(bhat(ns)).singular_values
        sX = svd_complex(expanded_loewner(ns)).singular_values
        assert np.max(np.abs(np.sqrt(2) * sB - sX)) <= 8 * EPS * sX[0]

    def test_residual_optimality(self):
        rng = np.random.default_rng(80)
        x, y = separated_nodes(rng, 12, 3)
        ns = NodeSet(test_nodes=x, support_nodes=y)
        X = expanded_loewner(ns)
        alpha, beta = min_singular_pair(bhat(ns))
        best = np.linalg.norm(X @ np.concatenate([alpha, beta]))
        s1 = svd_complex(X).singular_values[0]
        for _ in range(1000):
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v /= np.linalg.norm(v)
            assert best <= np.linalg.norm(X @ v) + 64 * EPS * s1

    def test_overlap_kernel_case(self):
        # test nodes equal to support nodes: rows are [e_j | -f_j e_j], so
        # gamma = [f*beta; beta] lies in the kernel and sigma_2m = 0
        y = np.array([0.3, 1.1, 2.7])
        ns = NodeSet(test_nodes=y, support_nodes=y)
        X = expanded_loewner(ns)
        f = np.exp(1j * y)
        rng = np.random.default_rng(82)
        beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gamma = np.concatenate([f * beta, beta])
        assert np.max(np.abs(X @ gamma)) <= 8 * EPS * np.linalg.norm(gamma)
        sig = svd_complex(X).singular_values
        assert sig[-1] <= 64 * EPS * sig[0]

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            lawson_fit([1.0, 1.0], [0.0], LawsonConfig(n_lawson=1))
        with pytest.raises(InvalidInputError):
            lawson_fit([1.0, 2.0], [2.0], LawsonConfig(n_lawson=1))


class TestBoundary:
    def test_non_integer_steps_rejected(self):
        with pytest.raises(InvalidInputError):
            LawsonConfig(n_lawson=1.5)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_nodes_rejected_before_any_arithmetic(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                lawson_fit([1.0, 2.0, 3.0], [0.5, bad], LawsonConfig(n_lawson=2))
            with pytest.raises(InvalidInputError):
                lawson_fit([1.0, bad, 3.0], [0.5], LawsonConfig(n_lawson=2))
