"""Grid metrics: max error, unitarity deviation, pole scan; structure residual."""

import importlib

import numpy as np
import pytest

from unirat import (
    BarycentricInterpolant,
    CayleyApproximant,
    NonInterpolatoryApproximant,
    PadeApproximant,
    aaa_fit,
    max_error,
    real_axis_pole_scan,
    structure_residual,
    svd_complex,
    unitarity_deviation,
)
from unirat.cli import FIGURE_FITS
from unirat.diagnostics import _values
from unirat.errors import InvalidInputError, PoleEvaluationError
from unirat.linalg import EPS

from conftest import EVAL_GRID, FIT_GRID


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
        # d(2) = 0 at the zero-weight support node 2: eval raises a pole
        # error there, and the fallback reads inf at it like any pole
        r = BarycentricInterpolant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0])
        with pytest.raises(PoleEvaluationError) as exc:
            r.eval(self.GRID)
        assert exc.value.location == 0.0
        with pytest.raises(PoleEvaluationError) as exc:
            r.eval(2.0)
        assert exc.value.location == 2.0
        vals = _values(r, self.GRID)
        assert np.isinf(vals[[300, -1]]).all() and self.GRID[-1] == 2.0
        assert np.array_equal(vals.view(np.uint64),
                              pointwise_values(r, self.GRID).view(np.uint64))

    def test_hit_before_plain_pole(self):
        # the zero-coefficient hit at 2 comes first in grid order, the plain
        # pole at 0 after it: every form reads inf at both points
        grid = np.concatenate([[2.0], self.GRID])
        for approx in (
            BarycentricInterpolant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0]),
            CayleyApproximant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0]),
            NonInterpolatoryApproximant(
                support=[-1.0, 1.0, 2.0], alpha=[1.0, 2.0, 1.0], beta=[1.0, 1.0, 0.0]),
        ):
            vals = _values(approx, grid)
            assert np.isinf(vals[[0, 301]]).all() and grid[301] == 0.0
            assert np.array_equal(vals.view(np.uint64),
                                  pointwise_values(approx, grid).view(np.uint64))
            assert max_error(approx, grid) == np.inf

    def test_cost_does_not_grow_with_poles(self, monkeypatch):
        # 1 002 poles: the zero-weight hit at 2, a thousand copies of it and
        # the plain pole at 0; the fallback evaluates them in one call, not
        # one call each
        approx = CayleyApproximant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0])
        grid = np.concatenate([np.linspace(-3.0, 3.0, 601), np.full(1000, 2.0)])
        calls = []
        for method in ("eval", "denominator"):
            def counted(self, x, method=method, call=getattr(CayleyApproximant, method)):
                calls.append(method)
                return call(self, x)
            monkeypatch.setattr(CayleyApproximant, method, counted)
        vals = _values(approx, grid)
        assert calls.count("eval") <= 2 and calls.count("denominator") <= 1
        assert np.isinf(vals).sum() == 1002
        monkeypatch.undo()
        assert np.array_equal(vals.view(np.uint64),
                              pointwise_values(approx, grid).view(np.uint64))


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

    def test_two_dimensional_grid(self):
        # diagnostics read a grid of any shape as its flat points
        y = np.array([-3.0, 0.5, 4.0])
        grid = np.linspace(-10.0, 10.0, 12)
        grid[5] = y[1]
        for approx in (CayleyApproximant(support=y, coefficients=[1.0, 1j, -0.5]),
                       PadeApproximant(5)):
            assert max_error(approx, grid.reshape(3, 4)) == max_error(approx, grid)
            assert unitarity_deviation(approx, grid.reshape(3, 4)) == unitarity_deviation(
                approx, grid)
            assert real_axis_pole_scan(approx, grid.reshape(3, 4)) == real_axis_pole_scan(
                approx, grid)


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
    """The Cayley form's interpolation residual max_j |f_j w_j - conj(w_j)|."""

    def test_minimizing_vector(self, figure_fits):
        approx, _, _ = figure_fits["aaa_mod"]
        assert approx.phase_residual <= 4 * EPS

    def test_hand_value(self):
        r = CayleyApproximant(support=[np.pi / 2], coefficients=[1.0])
        assert abs(r.phase_residual - np.sqrt(2)) <= 4 * EPS


class TestStructureResidual:
    """max_j |alpha_j - e^{i theta} conj(beta_j)| / ||alpha||, theta = arg sum alpha_j beta_j."""

    def test_hand_value(self):
        # alpha = (1, i)/sqrt(2), beta = (1, 1)/sqrt(2): theta = pi/4, and both
        # entries miss by |1 - e^{i pi/4}|/sqrt(2) = sqrt(2) sin(pi/8)
        r = BarycentricInterpolant(support=[0.0, np.pi / 2], coefficients=[1.0, 1.0])
        assert abs(structure_residual(r) - np.sqrt(2) * np.sin(np.pi / 8)) <= 4 * EPS

    @pytest.mark.parametrize("name", ["aaa_mod", "lawson_mod"])
    def test_modified_figure_fits(self, figure_fits, name):
        approx, _, _ = figure_fits[name]
        assert structure_residual(approx) <= 4 * EPS

    @pytest.mark.parametrize("name", ["aaa_orig", "lawson_orig"])
    def test_global_phase_invariant(self, figure_fits, name):
        # the SVD fixes the singular vector only up to a phase; the residual
        # aligns it, so a rotated vector reads the same to rounding
        approx, _, _ = figure_fits[name]
        base = structure_residual(approx)
        assert base <= 1e-5
        for phi in (0.3, 1.0, np.pi / 2, 2.5, np.pi, -2.0):
            fields = {f: np.exp(1j * phi) * getattr(approx, f) for f in approx.COEFFICIENTS}
            rotated = type(approx)(support=approx.support, **fields)
            assert abs(structure_residual(rotated) - base) <= 4 * EPS

    def test_pade_has_no_coefficient_pair(self):
        with pytest.raises(InvalidInputError, match="alpha/beta"):
            structure_residual(PadeApproximant(5))

    def test_zero_numerator_is_infinite(self):
        r = NonInterpolatoryApproximant(support=[0.0, 1.0], alpha=[0.0, 0.0], beta=[1.0, 2.0])
        assert structure_residual(r) == np.inf

    @pytest.mark.parametrize("fit", ["aaa_orig", "lawson_orig"])
    def test_wedin_bound(self, monkeypatch, fit):
        # the residual is the perturbation of the fit's last singular vector,
        # bounded by eps sigma_max / (sigma_{m-1} - sigma_m) (Wedin); the fits
        # solve every system by smallest_right_vector in unirat.loewner, whose
        # package attribute is the loewner function, not the module.  A warm
        # step's record does not give sigma_{m-1}, so the bound reads a fully
        # converged SVD of the last system
        loewner = importlib.import_module("unirat.loewner")
        systems = []

        def record(A, *args, solve=loewner.smallest_right_vector):
            systems.append(A.copy())
            return solve(A, *args)
        monkeypatch.setattr(loewner, "smallest_right_vector", record)
        approx, _ = aaa_fit(FIT_GRID, FIGURE_FITS[fit])
        s = svd_complex(systems[-1]).singular_values
        bound = EPS * s[0] / (s[-2] - s[-1])
        assert structure_residual(approx) <= bound
