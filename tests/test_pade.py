"""Diagonal Pade comparator tests."""

import numpy as np
import pytest

from unirat import PadeApproximant
from unirat.errors import InvalidInputError
from unirat.barycentric import BLOCK_ELEMENTS
from unirat.linalg import EPS
from unirat.pade import MAX_DEGREE, pade_coefficients


class TestCoefficients:
    def test_degree_one(self):
        assert np.allclose(pade_coefficients(1), [1.0, 0.5], atol=EPS)

    def test_degree_two(self):
        # e^z ~ (1 + z/2 + z^2/12) / (1 - z/2 + z^2/12)
        assert np.allclose(pade_coefficients(2), [1.0, 0.5, 1 / 12], atol=2 * EPS)

    def test_bounds(self):
        with pytest.raises(InvalidInputError):
            pade_coefficients(-1)
        with pytest.raises(InvalidInputError):
            pade_coefficients(MAX_DEGREE + 1)
        assert pade_coefficients(MAX_DEGREE).shape == (MAX_DEGREE + 1,)
        assert np.all(np.isfinite(pade_coefficients(MAX_DEGREE)))


class TestEvaluation:
    def test_degree_one_closed_form(self):
        # (1 + ix/2)/(1 - ix/2); at x = 2 this is (1+i)/(1-i) = i
        assert abs(PadeApproximant(1).eval(2.0) - 1j) <= 4 * EPS
        x = 0.75
        ref = (1 + 1j * x / 2) / (1 - 1j * x / 2)
        assert abs(PadeApproximant(1).eval(x) - ref) <= 4 * EPS

    def test_degree_zero_constant(self):
        for x in (-5.0, 0.0, 2.5):
            assert PadeApproximant(0).eval(x) == 1.0

    def test_endpoint_error_order(self):
        err = abs(PadeApproximant(13).eval(13.9) - np.exp(1j * 13.9))
        assert 1e-6 <= err <= 1e-4

    def test_unit_modulus(self):
        p = PadeApproximant(degree=13)
        x = np.linspace(-20, 20, 2001)
        assert np.max(np.abs(np.abs(p.eval(x)) - 1.0)) <= 2 * EPS

    def test_taylor_order(self):
        # |error| ~ C |x|^(2k+1) near 0: check the log-log slope
        # the sample window keeps the error well above the rounding floor
        for k, lo, hi in ((1, -2.0, -1.0), (2, -1.5, -0.7), (3, -1.0, -0.4)):
            x = np.logspace(lo, hi, 20)
            err = np.abs(PadeApproximant(k).eval(x) - np.exp(1j * x))
            slope = np.polyfit(np.log(x), np.log(err), 1)[0]
            assert abs(slope - (2 * k + 1)) <= 0.2

    def test_denominator_is_conjugate_numerator(self):
        p = PadeApproximant(degree=5)
        x = np.array([0.3, -1.7, 9.2])
        assert np.array_equal(p.denominator(x), np.conj(p._numerator(x)))

    def test_blocked_horner_matches_whole_array(self):
        p = PadeApproximant(degree=13)
        x = np.linspace(-40.0, 40.0, 2 * BLOCK_ELEMENTS + 3)
        z = 1j * x
        ref = np.full(x.shape, p.coefficients[-1], dtype=complex)
        for c in p.coefficients[-2::-1]:
            ref = ref * z + c
        assert np.array_equal(p._numerator(x).view(np.uint64), ref.view(np.uint64))
        grid = x[:12].reshape(3, 4)
        assert np.array_equal(p._numerator(grid), ref[:12].reshape(3, 4))
