"""Greedy AAA loop: selection rule, variants, trace semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unirat import (
    AaaConfig,
    CayleyApproximant,
    BarycentricInterpolant,
    NodeSet,
    aaa_fit,
    greedy_select,
    max_error,
    phase_diagonals,
    rescaled_loewner,
    svd_real,
    unitarity_deviation,
)
from unirat.errors import InvalidInputError
from unirat.linalg import EPS

from conftest import separated_nodes


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            AaaConfig(m_max=0)
        with pytest.raises(InvalidInputError):
            AaaConfig(m_max=3, tol=-1.0)
        with pytest.raises(InvalidInputError):
            AaaConfig(m_max=3, variant="fast")
        with pytest.raises(InvalidInputError):
            AaaConfig(m_max=3, n_lawson=-1)


class TestGreedySelect:
    def test_tie_break(self):
        assert greedy_select([0.0, 3.0, 3.0], [0.0, 0.0, 0.0]) == 1

    def test_all_zero(self):
        assert greedy_select([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            best, arg = -1.0, 0
            for i in range(n):
                e = abs(a[i] - b[i])
                if e > best:
                    best, arg = e, i
            assert greedy_select(a, b) == arg

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            greedy_select([], [])
        with pytest.raises(InvalidInputError):
            greedy_select([1.0], [1.0, 2.0])


class TestAaaFit:
    def test_figure_setup_converges(self, figure_fits):
        approx, trace, _ = figure_fits["aaa_mod"]
        grid = np.linspace(-13.9, 13.9, 2000)
        assert isinstance(approx, CayleyApproximant)
        assert trace.converged
        assert len(trace.iterations) <= 15
        assert max_error(approx, grid) <= 1e-12

    def test_single_support_node(self):
        x = np.array([-1.0, 0.5, 2.0])
        approx, trace = aaa_fit(x, AaaConfig(m_max=1, tol=0.0))
        assert approx.support.shape == (1,)
        node = approx.support[0]
        assert node in x
        assert abs(abs(approx.coefficients[0]) - 1.0) <= 2 * EPS
        assert approx.eval(float(node)) == complex(
            np.conj(approx.coefficients[0]) / approx.coefficients[0]
        )
        assert abs(approx.eval(float(node)) - np.exp(1j * node)) <= 4 * EPS

    def test_variants_agree(self):
        x = np.linspace(-4.0, 4.0, 120)
        rm, _ = aaa_fit(x, AaaConfig(m_max=6, tol=0.0, variant="modified"))
        ro, _ = aaa_fit(x, AaaConfig(m_max=6, tol=0.0, variant="original"))
        em, eo = max_error(rm, x), max_error(ro, x)
        assert isinstance(ro, BarycentricInterpolant)
        assert max(em, eo) <= 10 * min(em, eo)

    def test_modified_output_invariants(self):
        x = np.linspace(-6.0, 6.0, 200)
        approx, trace = aaa_fit(x, AaaConfig(m_max=7, tol=0.0))
        y = approx.support
        assert len(set(y.tolist())) == y.size
        assert approx.phase_residual <= 4 * EPS
        assert unitarity_deviation(approx, x) <= 2 * EPS
        for node in y:  # support interpolation is exact for the Cayley form
            assert abs(approx.eval(float(node)) - np.exp(1j * node)) <= 8 * EPS

    def test_trace_records(self):
        x = np.linspace(-3.0, 3.0, 50)
        _, trace = aaa_fit(x, AaaConfig(m_max=4, tol=0.0))
        assert [it.m for it in trace.iterations] == [1, 2, 3, 4]
        assert not trace.converged
        assert trace.stop_reason == "m_max"
        nodes = [it.node for it in trace.iterations]
        assert len(set(nodes)) == 4

    def test_nullspace_final_iteration(self):
        # with N = 2 m_max - 1 nodes the last matrix is (m-1) x m
        x = np.linspace(-2.0, 2.0, 9)
        approx, trace = aaa_fit(x, AaaConfig(m_max=5, tol=0.0))
        y = approx.support
        rest = np.array([v for v in x if v not in set(y.tolist())])
        assert rest.size == 4
        ns = NodeSet(test_nodes=rest, support_nodes=y)
        res = svd_real(rescaled_loewner(ns))
        sig = res.singular_values
        assert trace.iterations[-1].sigma_min <= 64 * EPS * sig[0]
        assert abs(trace.iterations[-1].sigma_min - sig[-1]) <= 16 * EPS * sig[0]

    def test_sigma_min_lower_bounds_sampled_norms(self):
        x = np.linspace(-5.0, 5.0, 80)
        approx, trace = aaa_fit(x, AaaConfig(m_max=5, tol=0.0))
        y = approx.support
        rest = np.array([v for v in x if v not in set(y.tolist())])
        lhat = rescaled_loewner(NodeSet(test_nodes=rest, support_nodes=y))
        rng = np.random.default_rng(62)
        U = rng.standard_normal((5, 10000))
        U /= np.linalg.norm(U, axis=0)
        sampled = np.min(np.linalg.norm(lhat @ U, axis=0))
        assert trace.iterations[-1].sigma_min <= sampled + 4 * EPS

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            aaa_fit([1.0], AaaConfig(m_max=1))
        with pytest.raises(InvalidInputError):
            aaa_fit([1.0, 1.0], AaaConfig(m_max=1))
        with pytest.raises(InvalidInputError):
            aaa_fit([1.0, 2.0], AaaConfig(m_max=2))

    def test_lawson_handoff(self):
        x = np.linspace(-3.0, 3.0, 100)
        approx, trace = aaa_fit(x, AaaConfig(m_max=4, tol=0.0, n_lawson=3))
        assert trace.lawson is not None
        assert len(trace.lawson.steps) == 3
        assert isinstance(approx, CayleyApproximant)


class TestConfigBoundary:
    @pytest.mark.parametrize("kwargs", [
        {"m_max": 2.5},
        {"m_max": 3, "tol": float("nan")},
        {"m_max": 3, "n_lawson": 1.5},
    ])
    def test_rejects_non_integer_counts_and_nan_tol(self, kwargs):
        with pytest.raises(InvalidInputError):
            AaaConfig(**kwargs)

    def test_integer_types_accepted(self):
        config = AaaConfig(m_max=np.int64(3), n_lawson=np.int32(0))
        assert config.m_max == 3


class TestModifiedProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(6, 24), st.integers(1, 5))
    def test_unit_modulus_and_phase_residual(self, seed, n, m_max):
        x, _ = separated_nodes(np.random.default_rng(seed), n, 0)
        approx, _ = aaa_fit(x, AaaConfig(m_max=m_max, tol=0.0, variant="modified"))
        assert isinstance(approx, CayleyApproximant)
        assert approx.phase_residual <= 4 * EPS
        grid = np.concatenate([x, approx.support, np.linspace(-20.0, 20.0, 101)])
        assert np.max(np.abs(np.abs(approx.eval(grid)) - 1.0)) <= 1e-15
