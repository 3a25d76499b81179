"""Approximant forms: evaluation semantics, limits, certification."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from unirat import barycentric, pade
from unirat import (
    AaaConfig,
    BarycentricInterpolant,
    CayleyApproximant,
    LawsonConfig,
    NodeSet,
    NonInterpolatoryApproximant,
    PadeApproximant,
    aaa_fit,
    bhat,
    greedy_select,
    lawson_fit,
    lawson_weight_update,
    max_error,
    min_singular_coefficients,
    min_singular_pair,
    phase_diagonals,
    rescaled_loewner,
    svd_complex,
    svd_real,
)
from unirat.cli import approximant_from_dict
from unirat.errors import InvalidInputError, PoleEvaluationError
from unirat.linalg import EPS
from unirat.pade import MAX_DEGREE

from conftest import partial_fraction, separated_nodes

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
        # a zero weight at the support node 1 is a zero denominator there
        r2 = BarycentricInterpolant(support=[-1.0, 1.0], coefficients=[1.0, 0.0])
        with pytest.raises(PoleEvaluationError) as exc:
            r2.eval(1.0)
        assert exc.value.location == 1.0

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

    def test_subnormal_denominator(self):
        # at a hit of a node whose coefficient is subnormal, d is that
        # coefficient, and conj(d)/d overflows a plain complex divide; that
        # point is divided again with d scaled by an exact power of two, so
        # no warning escapes, the hit reads the quotient of its scaled
        # coefficient, and the block's other points keep the bits they have
        # when evaluated alone
        r = CayleyApproximant(support=[0.0, 3.0],
                              coefficients=[0.6 + 0.8j, 3.28e-310 - 4.63e-309j])
        x = np.array([-1.0, 3.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = r.eval(x)
            alone = [r.eval(v) for v in x[[0, 2]]]
        c = r.coefficients[1]
        d = complex(np.ldexp(c.real, 1030), np.ldexp(c.imag, 1030))
        assert values[1] == complex(np.conj(d) / d)
        assert [values[0], values[2]] == alone
        assert np.max(np.abs(np.abs(values) - 1.0)) <= 2 * EPS

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
    """The Cayley form's interpolation residual on fitted coefficients."""

    def test_accepts_minimizing_vector(self):
        rng = np.random.default_rng(50)
        y, w = fitted_coefficients(rng, 9, 4)
        r = CayleyApproximant(support=y, coefficients=w)
        assert r.phase_residual <= 4 * EPS

    def test_accepts_expanded_kernel_vector(self):
        # full-overlap system: [M | -S_F M] has an m-dimensional kernel and
        # the reconstructed beta satisfies the conjugate-phase identity
        y = np.array([0.4, 1.3, 2.9])
        ns = NodeSet(test_nodes=y, support_nodes=y)
        alpha, beta = min_singular_pair(bhat(ns))
        assert np.max(np.abs(alpha - np.conj(beta))) <= 4 * EPS
        r = CayleyApproximant(support=y, coefficients=beta)
        assert r.phase_residual <= 64 * EPS


class TestCoefficientPair:
    """Every form is alpha/beta: the interpolant's alpha is f w, the Cayley
    form's conj(w), and both forms' beta is w."""

    @pytest.mark.parametrize("cls, alpha_of", [
        (BarycentricInterpolant, lambda y, w: np.exp(1j * y) * w),
        (CayleyApproximant, lambda y, w: np.conj(w)),
    ])
    def test_pair_defines_the_quotient(self, cls, alpha_of):
        rng = np.random.default_rng(53)
        y, w = fitted_coefficients(rng, 9, 4)
        r = cls(support=y, coefficients=w)
        assert np.array_equal(r.alpha, alpha_of(r.support, r.coefficients))
        assert r.beta is r.coefficients
        rb = NonInterpolatoryApproximant(support=y, alpha=r.alpha, beta=r.beta)
        x = rng.uniform(-20, 20, size=50)
        assert np.allclose(rb.eval(x), r.eval(x), rtol=64 * EPS, atol=0)


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
    """Reference: the whole n x m quotient array, hit terms masked out,
    summed in node order, 0 + t_0 + t_1 + ..."""
    D = x[:, None] - support[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        T = coeff[None, :] / D
        T[D == 0.0] = 0.0
        sums = np.zeros(x.size, dtype=complex)
        for t in T.T:
            sums += t
    return sums


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
    ROWS = barycentric.BLOCK_POINTS

    @pytest.mark.parametrize("size", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    def test_block_edges(self, size):
        y, a, b = support_and_coefficients(self.M)
        x = np.linspace(-40.0, 40.0, size)
        # support hits in the first and last row of a block and in the tail
        placed = {i for i in (0, self.ROWS - 1, self.ROWS, size - 1) if i < size}
        for i in placed:
            x[i] = y[i % self.M]
        sums, node = partial_fraction(b, y, x)
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
            d = r.denominator(x)
            assert np.array_equal(bits(d[hits]), bits(r.beta[node[hits]])), name
            assert np.array_equal(bits(d[plain]),
                                  bits(unblocked_sums(r.beta, y, x)[plain])), name

    def test_stacked_coefficients_match_single(self):
        y, a, b = support_and_coefficients(7)
        x = np.concatenate([np.linspace(-20.0, 20.0, 30001), y])
        (sa, sb), node = partial_fraction(np.stack([a, b]), y, x)
        for coeff, stacked in ((a, sa), (b, sb)):
            single, single_node = partial_fraction(coeff, y, x)
            assert np.array_equal(bits(stacked), bits(single))
            assert np.array_equal(node, single_node)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 15, 40, 64, 65, 71, 130])
    def test_sum_order(self, m):
        # the nodes in order from +0, at every m, bit for bit, signed zeros
        # included; each part is summed in its own real row, so a
        # coefficient kind with a zero part makes rows of zero terms
        y, a, _ = support_and_coefficients(m)
        zeroed_real, zeroed_imag = a.copy(), a.copy()
        zeroed_real.real[::2] = 0.0
        zeroed_imag.imag[::2] = 0.0
        x = np.linspace(-40.0, 40.0, 3001)
        x[[5, 1700]] = y[[0, -1]]
        for coeff in (a, 1j * a.imag, a.real + 0j, zeroed_real, zeroed_imag):
            sums, node = partial_fraction(coeff, y, x)
            plain = node < 0
            assert np.count_nonzero(~plain) == 2
            assert np.array_equal(bits(sums[plain]),
                                  bits(unblocked_sums(coeff, y, x)[plain]))

    def test_pole_in_later_block(self):
        # the denominator (1/(x + 1) + 1/(x - 1))/sqrt(2) vanishes exactly at 0
        rows = barycentric.BLOCK_POINTS
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
        rows = barycentric.BLOCK_POINTS
        x = np.linspace(5.0, 6.0, 3 * rows)
        x[rows + 1], x[2 * rows + 1] = 3.0, 2.0
        with pytest.raises(PoleEvaluationError) as exc:
            rb.eval(x)
        assert exc.value.location == 3.0

    def test_first_zero_in_grid_order_raises(self, monkeypatch):
        # a zero-coefficient hit at y = 2 and a plain pole at x = 0 in a later
        # block: whichever comes first in grid order raises, and no block
        # after its own is evaluated
        rows = barycentric.BLOCK_POINTS
        x = np.linspace(5.0, 6.0, 2 * rows)
        ri = BarycentricInterpolant(support=[-1.0, 1.0, 2.0], coefficients=[1.0, 1.0, 0.0])
        rb = NonInterpolatoryApproximant(
            support=[-1.0, 1.0, 2.0], alpha=[1.0, 1.0, 1.0], beta=[1.0, 1.0, 0.0]
        )
        blocks = []

        def counted(*args, walk=barycentric._partial_fraction):
            for block in walk(*args):
                blocks.append(block[0])
                yield block
        monkeypatch.setattr(barycentric, "_partial_fraction", counted)
        x[3], x[rows + 5] = 2.0, 0.0
        for r in (ri, rb):
            with pytest.raises(PoleEvaluationError) as exc:
                r.eval(x)
            assert exc.value.location == 2.0
        assert blocks == [0, 0]
        x[3], x[rows + 5] = 0.0, 2.0
        for r in (ri, rb):
            with pytest.raises(PoleEvaluationError) as exc:
                r.eval(x)
            assert exc.value.location == 0.0

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

    @pytest.mark.parametrize("method", ["eval", "denominator"])
    def test_memory_beside_output_does_not_grow(self, method):
        # each block is written straight into the result and the block
        # buffers do not depend on the nodes, so what evaluation holds beside
        # the result is the same at 2e5 and at 8e5 points, and at 15 and at
        # 130 nodes
        def beside(r, size):
            x = np.linspace(-40.0, 40.0, size)
            tracemalloc.start()
            try:
                out = getattr(r, method)(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - out.nbytes

        cases = {name: [(form(*support_and_coefficients(m)), size)
                        for m, size in ((self.M, 200_000), (self.M, 800_000), (130, 200_000))]
                 for name, form in FORMS.items()}
        cases["pade13"] = [(PadeApproximant(13), size) for size in (200_000, 800_000)]
        for name, runs in cases.items():
            held = [beside(r, size) for r, size in runs]
            assert max(held) - min(held) <= 64 * 1024, (name, held)


#: The largest float and the smallest normal one.
BIG, TINY = np.finfo(float).max, np.finfo(float).tiny


@st.composite
def evaluation_cases(draw):
    m = draw(st.integers(1, 70))
    y = draw(st.lists(st.floats(-20, 20), min_size=m, max_size=m, unique=True))
    part = st.floats(-1, 1)
    a = [complex(draw(part), draw(part)) for _ in range(m)]
    b = [complex(draw(part), draw(part)) for _ in range(m)]
    # points of any magnitude, points near the largest float, where every
    # 1/(x - y_j) is subnormal, and points a subnormal distance from a
    # support node
    far = st.floats(1e300, BIG) | st.floats(-BIG, -1e300)
    near = st.builds(lambda yj, h: yj + h, st.sampled_from(y), st.floats(-TINY, TINY))
    x = draw(st.lists(st.floats(-25, 25) | st.sampled_from(y) | st.floats(-BIG, BIG) | far
                      | near, min_size=1, max_size=40))
    block = draw(st.integers(1, 64))
    # zero denominator coefficients: a hit of their node is a pole
    for j in draw(st.sets(st.integers(0, m - 1), max_size=3)):
        b[j] = 0j
    degree = draw(st.integers(0, MAX_DEGREE))
    return np.array(y), np.array(a), np.array(b), np.array(x), block, degree


class TestBlockedEvaluationProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(evaluation_cases())
    def test_grid_equals_pointwise(self, case):
        # the pole rule under blocking: the grid raises at the first point
        # whose one-point eval raises, the denominator reads 0 at exactly
        # those points, every other point keeps its one-point bits, and no
        # value is non-finite and no warning escapes, for the three forms
        # and for Padé
        y, a, b, x, block, degree = case
        assume(np.linalg.norm(b) > 0.0)
        forms = {name: form(y, a, b) for name, form in FORMS.items()}
        forms["pade"] = PadeApproximant(degree)
        for name, r in forms.items():
            pointwise = []
            raises = np.zeros(x.size, dtype=bool)
            # blocks of ``block`` points put many block edges
            # into a short grid
            with warnings.catch_warnings(), \
                    mock.patch.object(barycentric, "BLOCK_POINTS", block), \
                    mock.patch.object(pade, "BLOCK_POINTS", block):
                warnings.simplefilter("error")
                for i, v in enumerate(x):
                    try:
                        pointwise.append(r.eval(float(v)))
                    except PoleEvaluationError:
                        raises[i] = True
                d = r.denominator(x)
                assert np.array_equal(d == 0.0, raises), name
                if raises.any():
                    with pytest.raises(PoleEvaluationError) as exc:
                        r.eval(x)
                    assert exc.value.location == x[np.argmax(raises)], name
                grid = r.eval(x[~raises])
            assert np.all(np.isfinite(grid)), name
            assert np.array_equal(bits(grid), bits(pointwise)), name
            if name == "pade":
                continue
            # away from hits and poles, d adds the nodes in order
            plain = (partial_fraction(r.beta, y, x)[1] < 0) & ~raises
            assert np.array_equal(bits(d[plain]),
                                  bits(unblocked_sums(r.beta, y, x)[plain])), name


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
            with mock.patch.object(barycentric, "BLOCK_POINTS", block):
                grid = r.eval(x)
                den = r.denominator(x)
            assert np.all(np.isfinite(grid)), name
            assert np.array_equal(bits(grid), bits([r.eval(float(v)) for v in x])), name
            assert np.array_equal(bits(den), bits([r.denominator(float(v)) for v in x]))


class TestFarPoints:
    """At |x| near the largest float every 1/(x - y_j) is subnormal, and so
    are n and d, whose quotient overflows a plain complex divide; r there is
    sum alpha_j / sum beta_j, and Padé's (-1)^k."""

    X = np.array([1.5e308, -1.5e308, 1.7e308, -1.7e308])

    def test_values_are_the_limit(self):
        y, a, b = support_and_coefficients(4)
        forms = {name: form(y, a, b) for name, form in FORMS.items()}
        forms["pade"] = PadeApproximant(13)
        for name, r in forms.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = r.eval(self.X)
            limit = -1.0 if name == "pade" else np.sum(r.alpha) / np.sum(r.beta)
            assert np.allclose(values, limit, rtol=1e-12, atol=0.0), name
            if name in ("cayley", "pade"):
                assert np.all(np.abs(np.abs(values) - 1.0) <= 4 * EPS), name


def exact_sums(r, x):
    """n and d of the form r at the float x in 60 digits, from its alpha and
    beta as stored."""
    with mp.workdps(60):
        t = [1 / (mp.mpf(float(x)) - mp.mpf(float(y))) for y in r.support]
        return [mp.fsum(mp.mpc(complex(c)) * tj for c, tj in zip(coeff, t))
                for coeff in (r.alpha, r.beta)]


def exact_quotient(r, x):
    """n/d of the form r at the float x, rounded from 60 digits."""
    n, d = exact_sums(r, x)
    with mp.workdps(60):
        return complex(n / d)


class TestHitRule:
    """A point hits its nearest support node where 1/(x - y_j) overflows,
    and nowhere else.  Two support nodes a few 1e-309 below x = 0 give terms
    near 1.5e308 there, so that sums of two finite terms overflow; such a
    point's sums are added again from scaled terms."""

    X = np.array([-2.0, 0.0, 0.5, 3.0])

    @staticmethod
    def parts(coeff, y, x):
        """The real and imaginary parts of sum c_j (1/(x - y_j)) at x."""
        inv = 1.0 / (x - np.asarray(y))
        with np.errstate(over="ignore"):
            return np.sum(coeff.real * inv), np.sum(coeff.imag * inv)

    def forms(self, y, b):
        return [form(y, [0.0, 0.0], b) for form in FORMS.values()]

    def test_imaginary_overflow_is_not_a_hit(self):
        # each 1/(x - y_j) is finite at x = 0, and only the imaginary part's
        # sum overflows: d reads that sum, inf, and not beta_1; n/d is the
        # quotient of the sums, 1, -1 and 0 for the three forms
        y = [-5.7e-309, -5.6e-309]
        for r, want in zip(self.forms(y, [1j, 1j]), (1.0, -1.0, 0.0)):
            re, im = self.parts(r.beta, y, 0.0)
            assert np.isfinite(re) and np.isinf(im)
            d = r.denominator(self.X)
            assert np.array_equal(bits(d[1:2]), bits([complex(re, im)])), type(r)
            assert np.array_equal(bits(d), bits([r.denominator(float(v)) for v in self.X]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = r.eval(self.X)
            assert abs(grid[1] - want) <= 2 * EPS, type(r)
            assert np.array_equal(bits(grid), bits([r.eval(float(v)) for v in self.X]))

    def test_finite_parts_whose_sum_overflows_are_not_a_hit(self):
        y = [-6.7e-309, -6.6e-309]
        for r in self.forms(y, [1 + 1j, 1 + 1j]):
            re, im = self.parts(r.beta, y, 0.0)
            assert np.isfinite(re) and np.isfinite(im)
            with np.errstate(over="ignore"):
                assert np.isinf(re + im)
            d = r.denominator(self.X)
            assert np.array_equal(bits(d[1:2]), bits([complex(re, im)])), type(r)
            assert np.array_equal(bits(d), bits([r.denominator(float(v)) for v in self.X]))
            # the quotient of sums near 1e308 overflows a plain divide, and
            # is divided again with n and d scaled by a power of two
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = r.eval(self.X)
                pointwise = [r.eval(float(v)) for v in self.X]
            assert np.all(np.isfinite(grid)), type(r)
            assert np.array_equal(bits(grid), bits(pointwise)), type(r)
            assert abs(grid[1] - exact_quotient(r, 0.0)) <= 4 * EPS, type(r)

    @pytest.mark.parametrize("form, alpha, beta", [
        (NonInterpolatoryApproximant, [1e-3, 2e-3], [1.0, -1.0]),
        (NonInterpolatoryApproximant, [1.0, -1.0], [0.1, 0.05]),
        (NonInterpolatoryApproximant, [1.0, -1.0], [1e-300, 2e-300]),
        (CayleyApproximant, None, [1.0, -1.0 + 0.1j]),
    ])
    def test_sums_of_finite_terms_past_the_float_range(self, form, alpha, beta):
        # x = 6e-309 lies between nodes 0 and 1.2e-308, each reciprocal
        # near 1.67e308 and finite, and a sum of the two terms overflows: the
        # value is n/d, not a node's limit (-0.002, inf+nanj and
        # 0.980+0.198j read as hits), and d reads its sum, inf in a part
        # past the float range, not a coefficient; a d that stays finite
        # while n overflows keeps its plain sum, whose coefficients near
        # 1e-300 scaled by 2^-64 would be subnormal
        y = [0.0, 1.2e-308]
        r = form(y, beta) if alpha is None else form(y, alpha, beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = r.eval(6e-309)
            d = r.denominator(6e-309)
        want = exact_quotient(r, 6e-309)
        assert abs(got - want) <= 1e-12 * abs(want)
        want = exact_sums(r, 6e-309)[1]
        assert np.allclose([d.real, d.imag], [float(want.real), float(want.imag)],
                           rtol=1e-12, atol=0.0)


class TestNearNodeDivision:
    """Next to a support node at 0, at distances whose reciprocal is finite
    and above 1e307, n and d reach 1e308, where NumPy's complex division
    scales by a reciprocal that is subnormal or 0: the quotient is divided
    again scaled by a power of two."""

    def test_reported_cases(self):
        rc = CayleyApproximant([0.0, 1.0], [1 + 0.7j, 1e-3])
        rn = NonInterpolatoryApproximant([0.0, 1.0], alpha=[1 - 0.5j, 0.0],
                                         beta=[1 + 1j, 0.001])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(abs(rc.eval(6.4e-309)) - 1.0) <= 4 * EPS
            grid = rc.eval(np.linspace(5.57e-309, 2e-308, 20001))
            assert np.all(np.abs(np.abs(grid) - 1.0) <= 4 * EPS)
            assert abs(rn.eval(6e-309) - (0.25 - 0.75j)) <= 1e-12

    def test_drawn_points(self):
        rng = np.random.default_rng(44)
        x = rng.choice([-1.0, 1.0], 40) / rng.uniform(1e307, 1.79e308, 40)
        assert np.all(np.isfinite(1.0 / x)) and np.all(np.abs(1.0 / x) > 1e307)
        # the node at 0 carries the weight, its parts of comparable size
        y = [0.0, 0.75]
        for _ in range(5):
            a, b = (rng.uniform(0.5, 1.0, (2, 2)) * rng.choice([-1.0, 1.0], (2, 2))
                    @ np.array([1.0, 1j]) * np.array([1.0, 1e-3]) for _ in range(2))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = {name: form(y, a, b).eval(x) for name, form in FORMS.items()}
            assert np.all(np.abs(np.abs(values["cayley"]) - 1.0) <= 4 * EPS)
            for name, form in FORMS.items():
                r = form(y, a, b)
                want = np.array([exact_quotient(r, v) for v in x])
                assert np.all(np.abs(values[name] - want) <= 1e-12 * np.abs(want)), name


class TestPointShape:
    @pytest.mark.parametrize("name", list(FORMS) + ["pade"])
    def test_array_keeps_its_shape(self, name):
        # a 2-D array raised ValueError in the partial-fraction kernel
        y, a, b = support_and_coefficients(5)
        r = PadeApproximant(13) if name == "pade" else FORMS[name](y, a, b)
        x = np.linspace(-12.0, 12.0, 6)
        x[4] = y[2]  # a support hit
        for f in (r.eval, r.denominator):
            got = f(x.reshape(2, 3))
            assert got.shape == (2, 3)
            assert np.array_equal(bits(got), bits(f(x).reshape(2, 3))), name


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
        r = barycentric.node_quotient(C.astype(complex), None, np.array([1.0, -1.0 + 0j]))
        assert r[0] == np.inf and r[1] == 1.0

    def test_cayley_quotient_from_one_product(self):
        # the modified fits' node values, alpha None: conj(C w) / (C w) has
        # the bits of node_quotient(C, conj(w), w) for a complex block whose
        # imaginary parts are +0, in C and in Fortran order
        rng = np.random.default_rng(13)
        for rows, m in ((10, 2), (333, 7), (2000, 15)):
            C = 1.0 / (rng.uniform(-10, 10, (rows, 1)) - rng.uniform(-10, 10, m))
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            for block in (C.astype(complex), np.asfortranarray(C, dtype=complex)):
                got = barycentric.node_quotient(block, None, w)
                expected = barycentric.node_quotient(block, np.conj(w), w)
                assert np.array_equal(bits(got), bits(expected))


class TestCheckNodes:
    @pytest.mark.parametrize("build", [
        lambda: approximant_from_dict({"kind": "cayley", "support": [[0, 1]],
                                       "coeff_re": [1, 2], "coeff_im": [0, 0]}),
        lambda: NodeSet(test_nodes=[[1.0, 2.0]], support_nodes=[0.0]),
        lambda: aaa_fit(np.arange(6.0).reshape(2, 3), AaaConfig(m_max=1)),
    ], ids=["approximant document", "NodeSet", "aaa_fit"])
    def test_rejects_nodes_that_are_not_1d(self, build):
        # set(v.tolist()) raised TypeError: unhashable type: 'list'
        with pytest.raises(InvalidInputError, match="1-D"):
            build()

    @pytest.mark.parametrize("nodes", [[[0.0, 1.0], [2.0]], ["a"], [1j]])
    def test_rejects_nodes_that_are_not_real_numbers(self, nodes):
        with pytest.raises(InvalidInputError, match="real numbers"):
            NodeSet(test_nodes=nodes, support_nodes=[5.0])

    @pytest.mark.parametrize("nodes", [[2.0, -1.0, 2.0], [0.0, 1.0, -0.0], [-0.0, 0.0],
                                       [5e-324, 3.0, 5e-324]])
    def test_rejects_equal_nodes(self, nodes):
        # -0.0 == 0.0: the two are one node, as they were in a set of the values
        with pytest.raises(InvalidInputError, match="^nodes must be pairwise distinct$"):
            barycentric.check_nodes(nodes)
        assert barycentric.check_nodes(np.unique(nodes)).size == np.unique(nodes).size

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_fits_reject_equal_nodes_first(self, variant):
        # two equal nodes also differ by 0, whose reciprocal is not finite:
        # the fits name them as equal, before check_differences would
        x = np.append(np.linspace(1.0, 5.0, 8), -0.0)
        x[0] = 0.0
        with pytest.raises(InvalidInputError, match="^test nodes must be pairwise distinct$"):
            aaa_fit(x, AaaConfig(m_max=2, variant=variant))
        config = LawsonConfig(n_lawson=1, variant=variant)
        with pytest.raises(InvalidInputError, match="^test nodes must be pairwise distinct$"):
            lawson_fit(x, [7.0, 8.0], config)
        with pytest.raises(InvalidInputError, match="^support nodes must be pairwise distinct$"):
            lawson_fit(x[1:], [-0.0, 8.0, 0.0], config)
        # a node in both sets, 0.0 and -0.0 included
        with pytest.raises(InvalidInputError, match="^support nodes are appended internally"):
            lawson_fit(x[1:], [7.0, 0.0], config)


#: One call per site that converts outside numbers to float, each given a
#: complex array, whose plain cast to float drops the imaginary part, or
#: values that are not numbers.
REAL_INPUT_SITES = {
    "check_nodes": lambda: aaa_fit(np.linspace(-1, 1, 6) + 1j, AaaConfig(m_max=2)),
    "eval points": lambda: CayleyApproximant([0, 1], [1j, 1]).eval(np.array([2 + 3j])),
    "pade eval scalar": lambda: PadeApproximant(3).eval(1 + 1j),
    "pade eval text": lambda: PadeApproximant(3).eval("1.5"),
    "diagnostics grid": lambda: max_error(PadeApproximant(3), np.linspace(0, 1, 3) + 1j),
    "NodeSet weights": lambda: NodeSet([1.0, 2.0], [0.0], weights=np.array([1.0, 1j])),
    "lawson weights": lambda: lawson_weight_update(np.array([1.0, 1j]), [1.0, 1.0]),
    "svd_real": lambda: svd_real(np.array([[1 + 5j, 0], [0, 2]])),
    "svd_real objects": lambda: svd_real([[1.0, None]]),
    "min_singular_coefficients": lambda: min_singular_coefficients(
        np.ones((3, 2), dtype=complex), phase_diagonals(NodeSet([1.0, 2.0, 3.0], [0.0, 4.0]))),
    "min_singular_pair": lambda: min_singular_pair(np.ones((3, 2), dtype=complex)),
}


@pytest.mark.parametrize("call", REAL_INPUT_SITES.values(), ids=REAL_INPUT_SITES.keys())
def test_complex_or_non_numeric_input_rejected(call):
    # the cast to float once warned ComplexWarning and went on with the real
    # parts; no warning may come before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="must be real numbers"):
            call()


#: One call per site that casts outside numbers to complex, or reads them
#: as given, each given strings, which a plain cast parses as numbers, an
#: object array, or an integer beyond float range, on which a plain cast
#: overflows.
NUMBER_INPUT_SITES = {
    "svd_complex": lambda: svd_complex([["1+2j", "0"], ["0", "3"]]),
    "interpolant coefficients": lambda: BarycentricInterpolant([0, 1], ["1", "2"]),
    "cayley coefficients": lambda: CayleyApproximant([0, 1], np.array([1, 2], dtype=object)),
    "noninterpolatory coefficients": lambda: NonInterpolatoryApproximant(
        [0, 1], [1, 1], [10**400, 1]),
    "greedy_select": lambda: greedy_select(["1", "2"], ["1", "1"]),
    "lawson errors": lambda: lawson_weight_update([1, 1], ["1", "2"]),
    "approximant document support": lambda: approximant_from_dict(
        {"kind": "cayley", "support": ["1.5", "2"], "coeff_re": [1, 2], "coeff_im": [0, 0]}),
}


@pytest.mark.parametrize("call", NUMBER_INPUT_SITES.values(), ids=NUMBER_INPUT_SITES.keys())
def test_non_numeric_input_rejected(call):
    # a site's own cast parsed strings and took object arrays, or ended in a
    # bare TypeError or OverflowError; no warning may come before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="must be"):
            call()


#: One call per input check that no other test reaches, with its message.
CHECKED_INPUTS = {
    "coefficient count": (lambda: CayleyApproximant([0.0, 1.0], [1.0, 2.0, 3.0]),
                          "coefficients must have one entry per support node"),
    "pair count": (lambda: NonInterpolatoryApproximant([0.0, 1.0], [1.0, 2.0], [1.0]),
                   "coefficients must have one entry per support node"),
    "infinite coefficient": (lambda: BarycentricInterpolant([0.0, 1.0], [1.0, np.inf]),
                             "coefficients must be finite"),
    "nan in a pair": (lambda: NonInterpolatoryApproximant([0.0, 1.0], [1.0, np.nan], [1.0, 1.0]),
                      "coefficients must be finite"),
    "phase diagonal": (
        lambda: min_singular_coefficients(np.ones((5, 2)), phase_diagonals(
            NodeSet([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 6.0, 7.0]))),
        "phase diagonal K does not match the column count"),
}


@pytest.mark.parametrize("call, message", CHECKED_INPUTS.values(), ids=CHECKED_INPUTS.keys())
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        call()
