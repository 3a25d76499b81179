"""Lawson re-weighted minimax phase: weight rule, variants, optimality."""

import importlib
import warnings

import numpy as np
import pytest

from unirat import (
    CayleyApproximant,
    LawsonConfig,
    NodeSet,
    NonInterpolatoryApproximant,
    aaa_fit,
    bhat,
    expanded_loewner,
    lawson_fit,
    lawson_weight_update,
    min_singular_pair,
    modified_cauchy,
    svd_complex,
    svd_real,
    unitarity_deviation,
)
from unirat.barycentric import node_quotient
from unirat.cli import FIGURE_LAWSON_STEPS
from unirat.errors import InvalidInputError, NumericalFailureError
from unirat.linalg import EPS, WeightedQR
from unirat.loewner import expanded_coefficients

from conftest import FIT_GRID, figure_aaa_config, separated_nodes


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

    @pytest.mark.parametrize("weights, errors", [([], []), ([1.0, 1.0], [np.inf, 0.5])])
    def test_empty_or_non_finite_errors_rejected(self, weights, errors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                lawson_weight_update(weights, errors)

    @pytest.mark.parametrize("weights", [[-1.0, -2.0], [1.0, -0.5], [1.0, np.nan],
                                         [1.0, np.inf]])
    def test_negative_or_non_finite_weights_rejected(self, weights):
        # [-1, -2] would return [1, 2] and a NaN weight would make every weight NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                lawson_weight_update(weights, [1.0, 1.0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            LawsonConfig(n_lawson=0)
        with pytest.raises(InvalidInputError):
            LawsonConfig(n_lawson=1, variant="other")


class TestLawsonFit:
    def test_first_step_matches_expanded_svd(self):
        # 1, 2 and 3 steps reproduce, bit for bit, a replay through the node-level
        # functions over test nodes + appended support nodes, weighted by mu:
        # every step of the fit builds the matrix they return and solves it,
        # on its own, or, a modified step after the first, from the
        # WeightedQR of the first step's matrix
        rng = np.random.default_rng(72)
        for _ in range(5):
            x, y = separated_nodes(rng, 10, 3)
            xa = np.concatenate([x, y])
            for variant in ("modified", "original"):
                mu, qr = np.ones(xa.size), None
                for steps in (1, 2, 3):
                    ns = NodeSet(test_nodes=xa, support_nodes=y, weights=mu)
                    A = bhat(ns) if variant == "modified" else expanded_loewner(ns)
                    if steps == 1 and variant == "modified":
                        alpha, beta, solve = expanded_coefficients(A, variant)
                        qr = WeightedQR(A)
                    else:
                        alpha, beta, solve = expanded_coefficients(A, variant, qr, mu)
                    if variant == "modified":
                        assert alpha is None  # conj(beta), not formed
                        ref = CayleyApproximant(support=y, coefficients=beta)
                    else:
                        ref = NonInterpolatoryApproximant(support=y, alpha=alpha,
                                                          beta=beta)
                    r = node_quotient(modified_cauchy(ns), alpha, beta)
                    mu = lawson_weight_update(mu, np.exp(1j * xa) - r)
                    approx, _ = lawson_fit(x, y, LawsonConfig(n_lawson=steps,
                                                              variant=variant))
                    for name in ref.COEFFICIENTS:
                        assert np.array_equal(getattr(approx, name), getattr(ref, name))

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

    def test_stop_reasons(self, monkeypatch):
        rng = np.random.default_rng(84)
        x, y = separated_nodes(rng, 10, 3)
        _, trace = lawson_fit(x, y, LawsonConfig(n_lawson=3))
        assert len(trace.steps) == 3 and trace.stop_reason == "n_lawson"
        # an exact fit (every weighted error 0) stops after the step that found it
        monkeypatch.setattr("unirat.lawson.lawson_weight_update", lambda mu, eps: None)
        _, trace = lawson_fit(x, y, LawsonConfig(n_lawson=3))
        assert len(trace.steps) == 1 and trace.stop_reason == "exact"

    @pytest.mark.parametrize("variant", ["modified", "original"])
    @pytest.mark.parametrize("y", [[0.0, 1.0], [0.3, 1.1, 2.7]])
    def test_pole_at_test_node_is_numerical_failure(self, monkeypatch, variant, y):
        # weights that vanish on every test node leave step 2 with only the
        # support rows, a system with an m-dimensional null space, and the
        # chosen vector has a zero beta_j: a pole at the node y_j
        x = [4.0, 5.0][:len(y) - 1]
        monkeypatch.setattr("unirat.lawson.lawson_weight_update",
                            lambda mu, eps: np.where(np.arange(mu.size) < len(x), 0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="Lawson step 2: .* not finite"):
                lawson_fit(x, y, LawsonConfig(n_lawson=3, variant=variant))

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_undetermined_systems_rejected(self, variant):
        # n test nodes and m support nodes give n + m rows for 2m unknowns;
        # with m - 1 test nodes the null space is still one-dimensional
        y = [0.3, 1.1, 2.7, 3.5]
        with pytest.raises(InvalidInputError, match="need at least 3 test nodes, got 2"):
            lawson_fit([4.0, 5.0], y, LawsonConfig(n_lawson=1, variant=variant))
        _, trace = lawson_fit([4.0, 5.0, 6.0], y, LawsonConfig(n_lawson=3, variant=variant))
        assert trace.stop_reason == "n_lawson"
        assert trace.steps[-1].max_error <= 1e-12

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            lawson_fit([1.0, 1.0], [0.0], LawsonConfig(n_lawson=1))
        with pytest.raises(InvalidInputError):
            lawson_fit([1.0, 2.0], [2.0], LawsonConfig(n_lawson=1))
        # malformed nodes are checked before the overlap test
        for x, y in [([[1.0, 2.0]], [0.5]), (["a", 2.0], [0.5]), ([1.0, 2.0], [0.5j]),
                     ([1.0, 2.0], [[0.5]])]:
            with pytest.raises(InvalidInputError):
                lawson_fit(x, y, LawsonConfig(n_lawson=1))


def figure_aaa(variant):
    """The AAA fit that a figure's Lawson fit refines, and the Lawson fit's
    test nodes."""
    approx, _ = aaa_fit(FIT_GRID, figure_aaa_config(variant))
    return approx, FIT_GRID[~np.isin(FIT_GRID, approx.support)]


class TestStart:
    """A Lawson fit's step 1 needs no start vector: the eigensolve certifies
    it as it certifies every later step."""

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_aaa_iterate_certifies_step_1(self, monkeypatch, variant):
        # on the figure AAA fit's support nodes step 1's gap is about 100
        # times sigma_min: the step is certified by the eigensolve, records
        # ||A v|| and no degeneracy, and its vector lies within the Wedin
        # angle eps ||R||_F / (l - sigma) of the kernel's, and within 1e-3 of
        # the unit vector of the AAA iterate, [alpha; beta] (original) or
        # [Re beta; -Im beta] (modified)
        loewner = importlib.import_module("unirat.loewner")
        calls = []

        def record(A, *args, solve=loewner.smallest_right_vector):
            calls.append(A.copy())
            return solve(A, *args)
        aaa, x = figure_aaa(variant)
        monkeypatch.setattr(loewner, "smallest_right_vector", record)
        _, trace = lawson_fit(x, aaa.support, LawsonConfig(n_lawson=1, variant=variant))
        [A] = calls
        [step] = trace.steps
        v = step.solve.vector
        assert step.solve.sweeps == 0 and not step.degenerate
        g = np.concatenate([aaa.alpha, aaa.beta] if variant == "original"
                           else [aaa.beta.real, -aaa.beta.imag])
        g /= np.linalg.norm(g)
        assert np.linalg.norm(g - v * np.vdot(v, g)) <= 1e-3
        assert step.sigma_min == pytest.approx(np.linalg.norm(A @ v), rel=8 * EPS)
        full = (svd_real if variant == "modified" else svd_complex)(A)
        u = full.right_vectors[:, -1]
        p = np.vdot(u, v)
        assert np.linalg.norm(v - u * (p / abs(p))) <= step.solve.wedin

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_step_1_warm_off_the_figure_grid(self, variant):
        # a Lawson fit on random nodes, with no AAA fit before it: its step 1
        # is a warm record wherever its system is tall and its gap certified,
        # within the record's Wedin angle of the kernel's vector
        rng = np.random.default_rng(84)
        warm = 0
        for _ in range(10):
            x, y = separated_nodes(rng, 12, 4)
            _, trace = lawson_fit(x, y, LawsonConfig(n_lawson=1, variant=variant))
            solve = trace.steps[0].solve
            if solve.sweeps:
                continue
            warm += 1
            ns = NodeSet(test_nodes=np.concatenate([x, y]), support_nodes=y)
            kernel = (svd_real(bhat(ns)) if variant == "modified"
                      else svd_complex(expanded_loewner(ns))).smallest()
            p = np.vdot(kernel.vector, solve.vector)
            assert np.linalg.norm(solve.vector - kernel.vector * (p / abs(p))) <= solve.wedin
        assert warm >= 5

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_start_inverts_expanded_coefficients(self, variant):
        # a step's (alpha, beta) keep its whole unit vector g: [alpha; beta]
        # (original) or [Re beta; -Im beta] (modified, whose alpha is
        # conj(beta), returned as None), scaled to unit norm, is g again, so
        # the unit vector test_aaa_iterate_certifies_step_1 forms from an
        # approximant is the one its step would give
        rng = np.random.default_rng(78)
        x, y = separated_nodes(rng, 10, 3)
        ns = NodeSet(test_nodes=x, support_nodes=y)
        A = bhat(ns) if variant == "modified" else expanded_loewner(ns)
        alpha, beta, solve = expanded_coefficients(A, variant)
        assert (alpha is None) == (variant == "modified")
        g = np.concatenate([alpha, beta] if variant == "original" else [beta.real, -beta.imag])
        assert np.max(np.abs(g / np.linalg.norm(g) - solve.vector)) <= 4 * EPS

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_random_start(self, variant):
        # step 1 reads nothing of the AAA iterate but its support nodes, so
        # their order, drawn at random here, costs nothing: the eigensolve or
        # the kernel decides each step's vector from its system alone, and
        # the figure Lawson fit still reaches 1e-12
        aaa, x = figure_aaa(variant)
        support = np.random.default_rng(82).permutation(aaa.support)
        assert not np.array_equal(support, aaa.support)
        _, trace = lawson_fit(x, support,
                              LawsonConfig(n_lawson=FIGURE_LAWSON_STEPS, variant=variant))
        assert trace.steps[-1].max_error <= 1e-12


class TestBoundary:
    def test_non_integer_steps_rejected(self):
        with pytest.raises(InvalidInputError):
            LawsonConfig(n_lawson=1.5)
        with pytest.raises(InvalidInputError):
            LawsonConfig(n_lawson=True)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_nodes_rejected_before_any_arithmetic(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                lawson_fit([1.0, 2.0, 3.0], [0.5, bad], LawsonConfig(n_lawson=2))
            with pytest.raises(InvalidInputError):
                lawson_fit([1.0, bad, 3.0], [0.5], LawsonConfig(n_lawson=2))

    def test_node_differences_checked_across_both_sets(self):
        # each set alone is fine; a test node 1e-310 from a support node is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="nodes 0.0 and 1e-310"):
                lawson_fit([1e-310, 1.0, 2.0, 3.0], [0.0, 2.5], LawsonConfig(n_lawson=2))
