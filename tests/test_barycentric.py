"""Approximant forms: evaluation semantics, limits, certification."""

import tracemalloc
from unittest import mock

import numpy as np
import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from unirat import barycentric
from unirat import (
    BarycentricInterpolant,
    CayleyApproximant,
    NodeSet,
    NonInterpolatoryApproximant,
    bhat,
    min_singular_coefficients,
    min_singular_pair,
    phase_diagonals,
    rescaled_loewner,
    to_cayley,
)
from unirat.errors import (
    AmbiguousEvaluationError,
    InvalidInputError,
    NotCayleyRepresentableError,
    PoleEvaluationError,
)
from unirat.linalg import EPS

from conftest import separated_nodes

mp.mp.dps = 50


def fitted_coefficients(rng, n, m):
    x, y = separated_nodes(rng, n, m)
    ns = NodeSet(test_nodes=x, support_nodes=y)
    res = min_singular_coefficients(rescaled_loewner(ns), phase_diagonals(ns))
    return y, res.coefficients


class TestBarycentricInterpolant:
    def test_interpolates_support(self):
        rng = np.random.default_rng(40)
        y, w = fitted_coefficients(rng, 9, 4)
        r = BarycentricInterpolant(support=y, coefficients=w)
        for j in range(4):
            assert r.eval(float(y[j])) == complex(np.exp(1j * y[j]))

    def test_single_term_constant(self):
        r = BarycentricInterpolant(support=[0.7], coefficients=[1.0])
        f1 = complex(np.exp(0.7j))
        for x in (-3.0, 0.0, 10.0):
            assert r.eval(x) == f1

    def test_extended_precision_oracle(self):
        rng = np.random.default_rng(42)
        y, w = fitted_coefficients(rng, 9, 4)
        r = BarycentricInterpolant(support=y, coefficients=w)
        w = r.coefficients
        for x in rng.uniform(-20, 20, size=25):
            num = den = mp.mpc(0)
            for j in range(4):
                term = mp.mpc(complex(w[j])) / (mp.mpf(float(x)) - mp.mpf(float(y[j])))
                den += term
                num += mp.exp(1j * mp.mpf(float(y[j]))) * term
            ref = complex(num / den)
            assert abs(r.eval(float(x)) - ref) <= 32 * EPS

    def test_pole_and_ambiguity_errors(self):
        # w = (1,1)/sqrt(2) at y = (-1,1): denominator 2x/(x^2-1) = 0 at x=0
        r = BarycentricInterpolant(support=[-1.0, 1.0], coefficients=[1.0, 1.0])
        with pytest.raises(PoleEvaluationError) as exc:
            r.eval(0.0)
        assert exc.value.location == 0.0
        r2 = BarycentricInterpolant(support=[-1.0, 1.0], coefficients=[1.0, 0.0])
        with pytest.raises(AmbiguousEvaluationError):
            r2.eval(1.0)

    def test_normalization(self):
        r = BarycentricInterpolant(support=[0.0, 1.0], coefficients=[3.0, 4.0])
        assert abs(np.linalg.norm(r.coefficients) - 1.0) <= 4 * EPS
        with pytest.raises(InvalidInputError):
            BarycentricInterpolant(support=[0.0], coefficients=[0.0])

    def test_denominator_at_support_node_is_coefficient(self):
        # the masked sum of the other terms would read (1 + 1)/1.5 here
        r = BarycentricInterpolant(support=[-1.0, 0.0, 1.0], coefficients=[1.0, 0.5, -1.0])
        assert r.denominator(0.0) == complex(r.coefficients[1])
        assert np.array_equal(r.denominator(r.support), r.coefficients)

    def test_normalized_input_is_bit_stable(self):
        w = np.array([3.0, 4.0j]) / 5.0
        r1 = BarycentricInterpolant(support=[0.0, 1.0], coefficients=w)
        r2 = BarycentricInterpolant(support=[0.0, 1.0], coefficients=r1.coefficients)
        assert np.array_equal(r1.coefficients, r2.coefficients)


class TestCayleyApproximant:
    def test_unit_modulus(self):
        rng = np.random.default_rng(44)
        y, w = fitted_coefficients(rng, 11, 5)
        r = CayleyApproximant(support=y, coefficients=w)
        grid = rng.uniform(-20, 20, size=500)
        vals = r.eval(grid)
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 2 * EPS

    def test_support_hit(self):
        rng = np.random.default_rng(46)
        y, w = fitted_coefficients(rng, 9, 4)
        r = CayleyApproximant(support=y, coefficients=w)
        w = r.coefficients
        for j in range(4):
            assert r.eval(float(y[j])) == complex(np.conj(w[j]) / w[j])

    def test_single_node_closed_form(self):
        r = CayleyApproximant(support=[0.0], coefficients=[1j])
        for x in (-2.0, 0.0, 5.0):
            assert r.eval(x) == -1.0

    def test_numerator_is_conjugate_denominator(self):
        rng = np.random.default_rng(48)
        y, w = fitted_coefficients(rng, 9, 4)
        r = CayleyApproximant(support=y, coefficients=w)
        x = rng.uniform(-20, 20, size=50)
        xi = r.denominator(x)
        assert np.array_equal(r.eval(x), np.conj(xi) / xi)

    def test_pole_error(self):
        # coefficients (1,1): xi(0) = 0 between the poles
        r = CayleyApproximant(support=[-1.0, 1.0], coefficients=[1.0, 1.0])
        with pytest.raises(PoleEvaluationError):
            r.eval(0.0)


class TestToCayley:
    def test_accepts_minimizing_vector(self):
        rng = np.random.default_rng(50)
        y, w = fitted_coefficients(rng, 9, 4)
        r = to_cayley(w, y)
        assert r.phase_residual <= 4 * EPS

    def test_rejects_wrong_phase(self):
        with pytest.raises(NotCayleyRepresentableError) as exc:
            to_cayley([1.0], [np.pi / 2])
        assert exc.value.residual == pytest.approx(np.sqrt(2))

    def test_accepts_expanded_kernel_vector(self):
        # full-overlap system: [M | -S_F M] has an m-dimensional kernel and
        # the reconstructed beta satisfies the conjugate-phase identity
        y = np.array([0.4, 1.3, 2.9])
        ns = NodeSet(test_nodes=y, support_nodes=y)
        alpha, beta = min_singular_pair(bhat(ns))
        assert np.max(np.abs(alpha - np.conj(beta))) <= 4 * EPS
        r = to_cayley(beta, y)
        assert r.phase_residual <= 64 * EPS


class TestNonInterpolatory:
    def test_matches_interpolant_when_alpha_is_f_beta(self):
        rng = np.random.default_rng(52)
        y, w = fitted_coefficients(rng, 9, 4)
        beta = w
        alpha = np.exp(1j * y) * beta
        rb = NonInterpolatoryApproximant(support=y, alpha=alpha, beta=beta)
        ri = BarycentricInterpolant(support=y, coefficients=beta)
        # keep evaluation points where the quotient is well conditioned, so
        # the comparison is a pure roundoff statement
        x = rng.uniform(-20, 20, size=30000)
        D = x[:, None] - y[None, :]
        d = (beta[None, :] / D).sum(axis=1)
        s = (np.abs(beta)[None, :] / np.abs(D)).sum(axis=1)
        x = x[s <= 2.0 * np.abs(d)][:1000]
        assert x.size >= 1000
        assert np.max(np.abs(rb.eval(x) - ri.eval(x))) <= 4 * EPS

    def test_support_hit_limit(self):
        y = np.array([0.0, 2.0])
        alpha = np.array([1 + 1j, 2.0])
        beta = np.array([2.0, 1j])
        rb = NonInterpolatoryApproximant(support=y, alpha=alpha, beta=beta)
        got = rb.eval(0.0)
        assert got == complex(rb.alpha[0] / rb.beta[0])

    def test_single_term_constant(self):
        rb = NonInterpolatoryApproximant(support=[1.0], alpha=[2j], beta=[1.0])
        for x in (-4.0, 0.0, 3.0):
            assert rb.eval(x) == complex(rb.alpha[0] / rb.beta[0])

    def test_joint_normalization(self):
        rb = NonInterpolatoryApproximant(
            support=[0.0, 1.0], alpha=[3.0, 0.0], beta=[0.0, 4.0]
        )
        norm = np.sqrt(np.linalg.norm(rb.alpha) ** 2 + np.linalg.norm(rb.beta) ** 2)
        assert abs(norm - 1.0) <= 4 * EPS

    def test_pole_errors(self):
        rb = NonInterpolatoryApproximant(
            support=[-1.0, 1.0], alpha=[1.0, 1.0], beta=[1.0, 1.0]
        )
        with pytest.raises(PoleEvaluationError):
            rb.eval(0.0)
        rb2 = NonInterpolatoryApproximant(
            support=[0.0, 1.0], alpha=[1.0, 1.0], beta=[1.0, 0.0]
        )
        with pytest.raises(PoleEvaluationError):
            rb2.eval(1.0)


class TestAppendixBProperty:
    def test_modulus_equality_on_grid(self):
        # |numerator| = |denominator| on the real axis for well-conditioned
        # type-(i) interpolants built from the minimizing vector
        rng = np.random.default_rng(54)
        grid = np.linspace(-15, 15, 10001)
        checked = 0
        while checked < 5:
            y, w = fitted_coefficients(rng, int(rng.integers(4, 20)), 5)
            D = grid[:, None] - y[None, :]
            d = (w[None, :] / D).sum(axis=1)
            s = (np.abs(w)[None, :] / np.abs(D)).sum(axis=1)
            if np.max(s / np.abs(d)) > 16.0:
                continue
            checked += 1
            n = ((np.exp(1j * y) * w)[None, :] / D).sum(axis=1)
            assert np.max(np.abs(np.abs(n) - np.abs(d)) / np.abs(d)) <= 64 * EPS


FORMS = {
    "interpolant": lambda y, a, b: BarycentricInterpolant(support=y, coefficients=b),
    "cayley": lambda y, a, b: CayleyApproximant(support=y, coefficients=b),
    "noninterpolatory": lambda y, a, b: NonInterpolatoryApproximant(
        support=y, alpha=a, beta=b),
}


def unblocked_sums(coeff, support, x):
    """Reference: the whole n x m quotient array, hit terms masked out."""
    D = x[:, None] - support[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        T = coeff[None, :] / D
    T[D == 0.0] = 0.0
    return T.sum(axis=1)


def bits(v):
    """Raw bits, so that signed zeros differ and equal NaNs compare equal."""
    return np.asarray(v, dtype=complex).view(np.uint64)


def support_and_coefficients(m):
    rng = np.random.default_rng(60 + m)
    y = np.sort(rng.uniform(-14.0, 14.0, size=m))
    a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return y, a, b


class TestBlockedEvaluation:
    M = 15
    ROWS = barycentric.BLOCK_ELEMENTS // M

    @pytest.mark.parametrize("size", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    def test_block_edges(self, size):
        y, a, b = support_and_coefficients(self.M)
        x = np.linspace(-40.0, 40.0, size)
        # support hits in the first and last row of a block and in the tail
        placed = {i for i in (0, self.ROWS - 1, self.ROWS, size - 1) if i < size}
        for i in placed:
            x[i] = y[i % self.M]
        sums, node = barycentric._partial_fraction(b, y, x)
        hits = np.nonzero(node >= 0)[0]
        assert set(hits.tolist()) == placed
        assert np.array_equal(x[hits], y[node[hits]])
        assert np.array_equal(sums[hits], b[node[hits]])
        plain = node < 0
        assert np.array_equal(bits(sums[plain]), bits(unblocked_sums(b, y, x)[plain]))
        for name, form in FORMS.items():
            r = form(y, a, b)
            pointwise = [r.eval(float(v)) for v in x]
            assert np.array_equal(bits(r.eval(x)), bits(pointwise)), name

    def test_stacked_coefficients_match_single(self):
        y, a, b = support_and_coefficients(7)
        x = np.concatenate([np.linspace(-20.0, 20.0, 30001), y])
        (sa, sb), node = barycentric._partial_fraction(np.stack([a, b]), y, x)
        for coeff, stacked in ((a, sa), (b, sb)):
            single, single_node = barycentric._partial_fraction(coeff, y, x)
            assert np.array_equal(bits(stacked), bits(single))
            assert np.array_equal(node, single_node)

    def test_pole_in_later_block(self):
        # the denominator (1/(x + 1) + 1/(x - 1))/sqrt(2) vanishes exactly at 0
        rows = barycentric.BLOCK_ELEMENTS // 2
        x = np.linspace(5.0, 6.0, 3 * rows)
        x[rows + 7] = x[2 * rows + 3] = 0.0
        for form in (BarycentricInterpolant, CayleyApproximant):
            r = form(support=[-1.0, 1.0], coefficients=[1.0, 1.0])
            with pytest.raises(PoleEvaluationError) as exc:
                r.eval(x)
            assert exc.value.location == 0.0

    def test_first_zero_weight_hit_raises(self):
        # beta_j = 0 at y = 2 and y = 3: the first of them in grid order
        rb = NonInterpolatoryApproximant(
            support=[2.0, 3.0, 4.0], alpha=[1.0, 1.0, 1.0], beta=[0.0, 0.0, 1.0]
        )
        rows = barycentric.BLOCK_ELEMENTS // 3
        x = np.linspace(5.0, 6.0, 3 * rows)
        x[rows + 1], x[2 * rows + 1] = 3.0, 2.0
        with pytest.raises(PoleEvaluationError) as exc:
            rb.eval(x)
        assert exc.value.location == 3.0

    def test_plain_pole_precedes_support_hit_errors(self):
        # a zero-coefficient hit early in the grid, a plain pole at x = 0 in
        # a later block: the pole is reported, as by a pointwise scan of the
        # plain points first
        rows = barycentric.BLOCK_ELEMENTS // 3
        x = np.linspace(5.0, 6.0, 2 * rows)
        x[3], x[rows + 5] = 2.0, 0.0
        ri = BarycentricInterpolant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0])
        rb = NonInterpolatoryApproximant(
            support=[-1.0, 1.0, 2.0], alpha=[1.0, 1.0, 1.0], beta=[1.0, 1.0, 0.0]
        )
        for r in (ri, rb):
            with pytest.raises(PoleEvaluationError) as exc:
                r.eval(x)
            assert exc.value.location == 0.0
        with pytest.raises(AmbiguousEvaluationError) as exc:
            ri.eval(x[:rows])
        assert exc.value.location == 2.0

    @pytest.mark.parametrize("m", [15, 60])
    def test_memory_bounded_by_output(self, m):
        # the unblocked evaluation held n x m float, bool and complex arrays:
        # 78 MB at m = 15 for 2e5 points, 26 times the output
        y, a, b = support_and_coefficients(m)
        x = np.linspace(-40.0, 40.0, 200_000)
        for name, form in FORMS.items():
            r = form(y, a, b)
            tracemalloc.start()
            try:
                out = r.eval(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 5 * out.nbytes, name


@st.composite
def evaluation_cases(draw):
    m = draw(st.integers(1, 8))
    y = draw(st.lists(st.floats(-20, 20), min_size=m, max_size=m, unique=True))
    part = st.floats(-1, 1)
    a = [complex(draw(part), draw(part)) for _ in range(m)]
    b = [complex(draw(part), draw(part)) for _ in range(m)]
    x = draw(st.lists(st.floats(-25, 25) | st.sampled_from(y), min_size=1, max_size=40))
    block = draw(st.integers(1, 64))
    return np.array(y), np.array(a), np.array(b), np.array(x), block


class TestBlockedEvaluationProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(evaluation_cases())
    def test_grid_equals_pointwise(self, case):
        y, a, b, x, block = case
        assume(np.linalg.norm(b) > 0.0)
        for name, form in FORMS.items():
            r = form(y, a, b)
            pointwise = []
            for v in x:
                try:
                    pointwise.append(r.eval(float(v)))
                except (PoleEvaluationError, AmbiguousEvaluationError):
                    assume(False)
            # blocks of ``block`` point-node pairs put many block edges
            # into a short grid
            with mock.patch.object(barycentric, "BLOCK_ELEMENTS", block):
                grid = r.eval(x)
            assert np.array_equal(bits(grid), bits(pointwise)), name


class TestCoefficientRange:
    """Coefficient vectors whose plain 2-norm overflows or underflows."""

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200, 2.0**-1074 * 3])
    def test_scaled_vectors_match_in_range_ones(self, scale):
        y = [-1.0, 0.0, 1.0]
        a = np.array([1.0, 2j, -1.0])
        b = np.array([2.0, 1.0, 1j])
        x = np.array([-0.5, 0.5, 3.0])
        for name, form in FORMS.items():
            ref = form(y, a, b)
            r = form(y, scale * a, scale * b)
            for field in type(r).COEFFICIENTS:
                assert np.allclose(getattr(r, field), getattr(ref, field),
                                   rtol=0.0, atol=4 * EPS), name
            assert np.allclose(r.eval(x), ref.eval(x), rtol=0.0, atol=16 * EPS), name

    def test_reported_cases(self):
        r = BarycentricInterpolant([0.0, 1.0], [1e200, 1e200])
        assert np.allclose(r.coefficients, np.sqrt(0.5), rtol=0.0, atol=EPS)
        assert np.isfinite(r.eval(0.25))
        r = BarycentricInterpolant([0.0], [3.7e-196j])
        assert r.coefficients[0] == 1j
        # |c| itself overflows here, the largest component does not
        r = CayleyApproximant([0.0], [1e308 + 1e308j])
        assert np.allclose(r.coefficients, (1 + 1j) * np.sqrt(0.5), rtol=0.0, atol=EPS)

    def test_in_range_vectors_keep_their_bits(self):
        # in range, the constructors divide by the plain norm and nothing else
        rng = np.random.default_rng(5)
        y = np.sort(rng.uniform(-5.0, 5.0, 6))
        a, b = (3.0 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
                for _ in range(2))
        single = BarycentricInterpolant(support=y, coefficients=b)
        assert np.array_equal(bits(single.coefficients), bits(b / np.linalg.norm(b)))
        pair = NonInterpolatoryApproximant(support=y, alpha=a, beta=b)
        norm = np.sqrt(np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2)
        assert np.array_equal(bits(pair.alpha), bits(a / norm))
        assert np.array_equal(bits(pair.beta), bits(b / norm))

    def test_zero_vectors_rejected(self):
        for name, form in FORMS.items():
            with pytest.raises(InvalidInputError):
                form([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])


class TestSubnormalDistance:
    """A point at a nonzero subnormal distance from a support node, where
    1/(x - y_j) overflows, takes the support-hit limit."""

    POINTS = (1e-310, -1e-320, 5e-324)

    def test_limits(self):
        rc = CayleyApproximant([-1.0, 0.0, 1.0], [1j, 2j, 1j])
        ri = BarycentricInterpolant([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0])
        rn = NonInterpolatoryApproximant([-1.0, 0.0, 1.0], alpha=[1.0, 2.0, 3.0],
                                         beta=[1.0, 4j, 1.0])
        for x in self.POINTS:
            assert rc.eval(x) == -1.0
            assert ri.eval(x) == 1.0
            assert rn.eval(x) == rn.alpha[1] / rn.beta[1]
            for r in (rc, ri):
                assert r.denominator(x) == r.coefficients[1]
            assert rn.denominator(x) == rn.beta[1]

    @pytest.mark.parametrize("block", [1, 4, 2**16])
    def test_grid_equals_pointwise(self, block):
        x = np.array([-2.0, self.POINTS[0], 0.0, 0.25, self.POINTS[1], -1.0,
                      self.POINTS[2], 3.0])
        y, a, b = [-1.0, 0.0, 1.0], [1.0, 2.0, 3j], [1j, 1.0, 2.0]
        for name, form in FORMS.items():
            r = form(y, a, b)
            with mock.patch.object(barycentric, "BLOCK_ELEMENTS", block):
                grid = r.eval(x)
                den = r.denominator(x)
            assert np.all(np.isfinite(grid)), name
            assert np.array_equal(bits(grid), bits([r.eval(float(v)) for v in x])), name
            assert np.array_equal(bits(den), bits([r.denominator(float(v)) for v in x]))


class TestNodeQuotient:
    def test_conjugate_numerator_is_bit_identical(self):
        # the modified fits pass alpha = conj(w): (C conj(w)) / (C w) must be
        # conj(C w) / (C w) bit for bit
        rng = np.random.default_rng(11)
        for rows in (50, 333, 4000):
            m = int(rng.integers(1, 20))
            C = 1.0 / (rng.uniform(-10, 10, (rows, 1)) - rng.uniform(-10, 10, m))
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            xi = C @ w
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = np.conj(xi) / xi
            got = barycentric.node_quotient(C, np.conj(w), w)
            assert np.array_equal(bits(got), bits(expected))

    def test_zero_denominator_is_inf(self):
        C = np.array([[1.0, 1.0], [1.0, 2.0]])
        r = barycentric.node_quotient(C, np.array([1.0, 0.0]), np.array([1.0, -1.0]))
        assert r[0] == np.inf and r[1] == -1.0
