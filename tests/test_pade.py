"""Diagonal Pade comparator tests."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from unirat import PadeApproximant
from unirat.diagnostics import max_error, real_axis_pole_scan
from unirat.errors import InvalidInputError
from unirat.barycentric import BLOCK_POINTS
from unirat.linalg import EPS
from unirat.pade import MAX_DEGREE, pade_coefficients

from conftest import pade_numerator


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

    @pytest.mark.parametrize("degree", [2.5, "3", 3.0, None, True, False])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(InvalidInputError, match="integer"):
            PadeApproximant(degree)


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
        # q(x) = p(-ix) = conj(p(ix)), with p(z) = sum_j c_j z^j
        p = PadeApproximant(degree=5)
        x = np.array([0.3, -1.7, 9.2])
        numerator = np.polyval(p.coefficients[::-1], 1j * x)
        assert np.array_equal(p.denominator(x), np.polyval(p.coefficients[::-1], -1j * x))
        assert np.array_equal(p.denominator(x), np.conj(numerator))
        assert np.array_equal(p.eval(x), numerator / np.conj(numerator))

    def test_blocked_horner_matches_whole_array(self):
        p = PadeApproximant(degree=13)
        x = np.linspace(-40.0, 40.0, 2 * BLOCK_POINTS + 3)
        assert 0.0 in x
        z = 1j * x
        ref = np.full(x.shape, p.coefficients[-1], dtype=complex)
        for c in p.coefficients[-2::-1]:
            ref = ref * z + c
        assert np.array_equal(pade_numerator(p, x).view(np.uint64), ref.view(np.uint64))
        grid = x[:12].reshape(3, 4)
        assert np.array_equal(p.denominator(grid), np.conj(ref[:12]).reshape(3, 4))
        # eval is p/conj(p) bit for bit; the denominator conj(p) has the
        # imaginary part -0.0 at x = 0, which Horner on -ix would make +0.0
        assert np.array_equal(p.eval(x).view(np.uint64), (ref / np.conj(ref)).view(np.uint64))
        assert np.signbit(p.denominator(0.0).imag)


    @pytest.mark.parametrize("size", [BLOCK_POINTS - 1, BLOCK_POINTS, BLOCK_POINTS + 1,
                                      2 * BLOCK_POINTS + 1])
    def test_block_edges_match_pointwise(self, size):
        p = PadeApproximant(degree=13)
        x = np.linspace(-40.0, 40.0, size)
        for method in (p.eval, p.denominator):
            pointwise = np.array([method(float(v)) for v in x])
            assert np.array_equal(method(x).view(np.uint64), pointwise.view(np.uint64))

    @pytest.mark.parametrize("degree, x", [(85, 1e6), (40, 1e10), (13, 1e30)])
    def test_overflowing_horner_is_unit_modulus(self, degree, x):
        # Horner's q overflows here, and eval reads conj(q)/q from x^-k q;
        # the reference is the same quotient in 60 digits
        p = PadeApproximant(degree)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = p.eval(np.array([x, -x, 0.5]))
            assert not np.isfinite(p.denominator(x))
        c = [mp.mpf(v) for v in p.coefficients]
        with mp.workdps(60):
            q = mp.polyval(c[::-1], mp.mpc(0, -x))
            want = complex(mp.conj(q) / q)
        assert abs(got[0] - want) <= 2 * EPS
        assert got[1] == np.conj(got[0])
        assert np.all(np.abs(np.abs(got) - 1.0) <= 2 * EPS)

    def test_finite_parts_past_the_float_range(self):
        # at 9e24 the parts of degree 13's q are finite, near 3.9e307, and a
        # block of them sums past the float range; from 9.1e24 on they leave
        # the reciprocal that complex division scales by subnormal.  eval
        # raises no warning and is of unit modulus
        p = PadeApproximant(13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = p.eval(np.full(100, 9e24))
            grid = p.eval(np.linspace(9e24, 1.01e25, 2001))
            assert np.isfinite(p.denominator(9e24))
        assert np.array_equal(block.view(np.uint64),
                              np.full(100, p.eval(9e24)).view(np.uint64))
        assert np.all(np.abs(np.abs(grid) - 1.0) <= EPS)


class TestNonFinitePoints:
    """Padé rejects the points the barycentric forms reject."""

    def test_eval_rejects_nan(self):
        with pytest.raises(InvalidInputError, match="finite"):
            PadeApproximant(13).eval(np.nan)

    def test_max_error_rejects_nan(self):
        with pytest.raises(InvalidInputError, match="finite"):
            max_error(PadeApproximant(13), [np.nan])

    def test_pole_scan_rejects_nan(self):
        with pytest.raises(InvalidInputError, match="finite"):
            real_axis_pole_scan(PadeApproximant(13), [np.nan, 1.0])
