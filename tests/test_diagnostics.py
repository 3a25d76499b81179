"""Grid metrics: max error, unitarity deviation, pole scan, phase residual."""

import numpy as np
import pytest

from unirat import (
    BarycentricInterpolant,
    CayleyApproximant,
    NonInterpolatoryApproximant,
    PadeApproximant,
    cayley_phase_residual,
    max_error,
    real_axis_pole_scan,
    unitarity_deviation,
)
from unirat.diagnostics import _values
from unirat.errors import AmbiguousEvaluationError, InvalidInputError, PoleEvaluationError
from unirat.linalg import EPS

from conftest import EVAL_GRID


class Constant:
    """Minimal approximant stub with a fixed complex value."""

    def __init__(self, value):
        self.value = value
        self.coefficients = np.array([1.0 + 0j])

    def eval(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.full(x.shape, self.value, dtype=complex)

    def denominator(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.ones(x.shape, dtype=complex)


class TestMaxError:
    def test_constant_one(self):
        one = PadeApproximant(degree=0)  # identically 1
        assert max_error(one, [0.0]) == 0.0
        assert abs(max_error(one, [np.pi]) - 2.0) <= 4 * EPS

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            max_error(PadeApproximant(degree=0), [])

    def test_figure_levels(self, figure_fits):
        grid = np.linspace(-13.9, 13.9, 2000)
        pade_err = max_error(PadeApproximant(degree=13), grid)
        assert 1e-6 <= pade_err <= 1e-4
        lawson, _, _ = figure_fits["lawson_mod"]
        assert max_error(lawson, grid) <= 1e-12

    def test_pole_counts_as_infinity(self):
        r = CayleyApproximant(support=[-1.0, 1.0], coefficients=[1.0, 1.0])
        grid = np.array([-3.0, 0.0, 3.0])  # xi(0) = 0
        assert max_error(r, grid) == np.inf


def pointwise_values(approx, grid):
    """Reference: one eval per point, inf where it raises a pole error."""
    out = np.empty(grid.size, dtype=complex)
    for i, x in enumerate(grid):
        try:
            out[i] = approx.eval(float(x))
        except PoleEvaluationError:
            out[i] = np.inf
    return out


class TestPoleFallback:
    GRID = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, 1.0, -1.0, 2.0]])

    @pytest.mark.parametrize("approx", [
        # poles at 0 (plain) and support hits at -1, 1
        BarycentricInterpolant(support=[-1.0, 1.0], coefficients=[1.0, 1.0]),
        CayleyApproximant(support=[-1.0, 1.0], coefficients=[1.0, 1.0]),
        # zero weight at the support node 2: xi(2) = 0 is a pole there
        CayleyApproximant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0]),
        NonInterpolatoryApproximant(
            support=[-1.0, 1.0, 2.0], alpha=[1.0, 2.0, 1.0], beta=[1.0, 1.0, 0.0]),
    ])
    def test_matches_pointwise_loop(self, approx):
        vals = _values(approx, self.GRID)
        assert np.isinf(vals[300]) and self.GRID[300] == 0.0
        assert np.array_equal(vals.view(np.uint64),
                              pointwise_values(approx, self.GRID).view(np.uint64))

    def test_zero_weight_interpolant_hit_propagates(self):
        r = BarycentricInterpolant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0])
        with pytest.raises(AmbiguousEvaluationError) as exc:
            _values(r, self.GRID)
        assert exc.value.location == 2.0
        with pytest.raises(AmbiguousEvaluationError):
            pointwise_values(r, self.GRID)


class TestUnitarityDeviation:
    def test_cayley_is_unitary(self, figure_fits):
        approx, _, _ = figure_fits["aaa_mod"]
        assert unitarity_deviation(approx, EVAL_GRID) <= 2 * EPS

    def test_constant_two(self):
        assert unitarity_deviation(Constant(2.0), [0.0, 1.0]) == 1.0

    def test_original_variant_deviates(self, figure_fits):
        approx, _, _ = figure_fits["aaa_orig"]
        dev = unitarity_deviation(approx, np.array([35.0]))
        assert 1e-9 <= dev <= 1e-3

    def test_triangle_relation(self, figure_fits):
        rng = np.random.default_rng(90)
        grid = rng.uniform(-30, 30, size=500)
        for name in ("aaa_mod", "aaa_orig"):
            approx, _, _ = figure_fits[name]
            assert unitarity_deviation(approx, grid) <= max_error(approx, grid)

    def test_grid_permutation_invariance(self, figure_fits):
        approx, _, _ = figure_fits["aaa_orig"]
        grid = np.linspace(-20, 20, 301)
        backwards = grid[::-1].copy()
        assert max_error(approx, grid) == max_error(approx, backwards)
        assert unitarity_deviation(approx, grid) == unitarity_deviation(
            approx, backwards
        )


class TestPoleScan:
    def test_figure_fit_unflagged(self, figure_fits):
        approx, _, _ = figure_fits["aaa_mod"]
        report = real_axis_pole_scan(approx, EVAL_GRID)
        assert not report.flagged
        assert report.min_denominator > report.threshold

    def test_single_node(self):
        r = CayleyApproximant(support=[0.0], coefficients=[1j])
        report = real_axis_pole_scan(r, np.array([5.0]))
        assert abs(report.min_denominator - 0.2) <= 4 * EPS
        assert not report.flagged

    def test_constructed_zero_flagged(self):
        r = CayleyApproximant(support=[-1.0, 1.0], coefficients=[1.0, 1.0])
        report = real_axis_pole_scan(r, np.array([-0.5, 0.0, 0.5]))
        assert report.flagged
        assert report.location == 0.0
        assert report.min_denominator == 0.0


class TestCayleyResidual:
    def test_minimizing_vector(self, figure_fits):
        approx, _, _ = figure_fits["aaa_mod"]
        assert cayley_phase_residual(approx.coefficients, approx.support) <= 4 * EPS

    def test_original_vector_larger(self, figure_fits):
        # the complex SVD fixes the global phase only up to its sign rule, so
        # the residual is 2|sin(phi)| times the coefficient scale: well above
        # machine precision but bounded
        approx, _, _ = figure_fits["aaa_orig"]
        res = cayley_phase_residual(approx.coefficients, approx.support)
        assert 64 * EPS < res <= 2.0

    def test_hand_value(self):
        assert abs(cayley_phase_residual([1.0], [np.pi / 2]) - np.sqrt(2)) <= 4 * EPS
