"""Greedy AAA loop: selection rule, variants, trace semantics."""

import dataclasses
import warnings

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
    loewner,
    max_error,
    min_singular_coefficients,
    phase_diagonals,
    rescaled_loewner,
    svd_complex,
    svd_real,
    unitarity_deviation,
)
import unirat.aaa as aaa
import unirat.linalg as linalg
from unirat.barycentric import node_quotient
from unirat.cli import FIGURE_FITS
from unirat.errors import InvalidInputError
from unirat.linalg import EPS
from unirat.loewner import VARIANTS, interpolatory_coefficients, interpolatory_system

from conftest import FIT_GRID, separated_nodes


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
        with pytest.raises(InvalidInputError):
            AaaConfig(m_max=True)
        with pytest.raises(InvalidInputError):
            AaaConfig(m_max=3, n_lawson=False)


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
        assert trace.stop_reason == "tol"
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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_first_iteration_certified_with_kernel_bits(self, variant):
        # iteration 1's one-column system is certified by the eigensolve,
        # since gap_bound is inf for one column: a warm record, no kernel
        # run, and the kernel's vector bit for bit.  Its sigma_min is the
        # column's norm either way
        rng = np.random.default_rng(109)
        grids = [FIT_GRID, np.array([-1.0, 0.5, 2.0])]
        grids += [np.sort(separated_nodes(rng, n, 0)[0]) for n in (4, 16, 30)]
        svd = svd_real if variant == "modified" else svd_complex
        for x in grids:
            approx, trace = aaa_fit(x, AaaConfig(m_max=1, tol=0.0, variant=variant))
            y = approx.support
            ns = NodeSet(test_nodes=x[~np.isin(x, y)], support_nodes=y)
            kernel = svd(rescaled_loewner(ns) if variant == "modified" else loewner(ns)).smallest()
            solve = trace.iterations[0].solve
            assert (solve.sweeps, solve.lower) == (0, np.inf)
            assert not solve.degenerate
            assert solve.vector.dtype == kernel.vector.dtype
            assert solve.vector.tobytes() == kernel.vector.tobytes()
            assert abs(solve.sigma_min - kernel.sigma_min) <= 2 * EPS * kernel.sigma_min

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
        assert [it.step for it in trace.iterations] == [1, 2, 3, 4]
        assert trace.stop_reason == "m_max"
        nodes = [it.node for it in trace.iterations]
        assert len(set(nodes)) == 4

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_final_coefficients_match_public_path(self, monkeypatch, variant):
        # the fit builds its systems with the functions behind the node-level
        # constructors, so the final system has the public path's bits.  Its
        # vector has them too where the kernel served the final iteration,
        # and where that iteration's system has one column, whose certified
        # vector is the kernel's; where the eigensolve served a larger
        # system, it lies within the Wedin angle eps ||R||_F / (l - sigma) of
        # the kernel's, which its record gives
        systems = []
        coefficients = aaa.interpolatory_coefficients

        def record(A, *args):
            systems.append(A.copy())
            return coefficients(A, *args)
        monkeypatch.setattr(aaa, "interpolatory_coefficients", record)
        rng = np.random.default_rng(64)
        served = set()
        fits, eigensolve = [], linalg._eigensolve
        for _ in range(5):
            x, _ = separated_nodes(rng, 16, 0)
            # with the eigensolve refused, m_max = 6 ends on the kernel's vector
            fits += [(x, 1, eigensolve), (x, 6, eigensolve), (x, 6, lambda A, R: None)]
        for x, m_max, solver in fits:
            monkeypatch.setattr(linalg, "_eigensolve", solver)
            approx, trace = aaa_fit(x, AaaConfig(m_max=m_max, tol=0.0, variant=variant))
            y = approx.support
            ns = NodeSet(test_nodes=x[~np.isin(x, y)], support_nodes=y)
            A = rescaled_loewner(ns) if variant == "modified" else loewner(ns)
            assert systems[-1].tobytes() == A.tobytes()
            if variant == "modified":
                u = min_singular_coefficients(A, phase_diagonals(ns)).coefficients
            else:
                u = svd_complex(A).right_vectors[:, -1]
            solve = trace.iterations[-1].solve
            if solve.sweeps or y.size == 1:
                served.add("kernel" if solve.sweeps else "one column")
                assert np.array_equal(approx.coefficients, u)
                continue
            served.add("eigensolve")
            w = approx.coefficients
            p = np.vdot(u, w)
            angle = np.linalg.norm(w - u * (p / abs(p)))
            assert angle <= solve.wedin
        assert served == {"kernel", "one column", "eigensolve"}

    @pytest.mark.parametrize("variant", ["modified", "original"])
    def test_degenerate_flags_past_convergence(self, variant):
        # 16 support nodes resolve exp(ix) on the figure grid to roundoff;
        # every later iteration's two smallest singular values sit at it
        _, trace = aaa_fit(FIT_GRID, AaaConfig(m_max=40, tol=0.0, variant=variant))
        assert [it.degenerate for it in trace.iterations] == [False] * 16 + [True] * 24

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

    def test_grown_system_matches_rebuild(self, monkeypatch):
        # each iteration drops its node's row from the previous system and
        # Cauchy block, by moving the rows below it up, and extends both by
        # its new column; the matrices solved and evaluated must be the bits
        # of those rebuilt from that iteration's whole Cauchy block.  Nodes
        # 21 and 12 of [-3, 3] and [-1, 1] fitted to m_max = n - 1 pick the
        # first and the last remaining row, so that every row or none moves,
        # and end on a one-row, wide system.  The fit's R and S_F diagonals
        # are views of buffers that later iterations overwrite, so the
        # recorder copies them
        systems, blocks = [], []

        def record(A, ph, variant):
            systems.append((A.copy(), dataclasses.replace(ph, R=ph.R.copy(), S_F=ph.S_F.copy()),
                            variant))
            return interpolatory_coefficients(A, ph, variant)

        def record_quotient(C, *coefficients, quotient=node_quotient):
            blocks.append(C.copy())
            return quotient(C, *coefficients)

        monkeypatch.setattr(aaa, "interpolatory_coefficients", record)
        monkeypatch.setattr(aaa, "node_quotient", record_quotient)
        fits = [(config.variant, FIT_GRID, aaa_fit(FIT_GRID, config)[1])
                for config in FIGURE_FITS.values()]
        fits += [(variant, grid, aaa_fit(grid, AaaConfig(m_max=m_max, tol=0.0,
                                                         variant=variant))[1])
                 for variant in VARIANTS
                 for grid, m_max in ((FIT_GRID, 40), (np.linspace(-3, 3, 21), 20),
                                     (np.linspace(-1, 1, 12), 11))]
        calls, quotients, picked = iter(systems), iter(blocks), set()
        for variant, x, trace in fits:
            y = []
            for step in trace.iterations:
                y.append(step.node)
                [j] = np.flatnonzero(x == step.node)
                picked |= {"first"} if j == 0 else {"last"} if j == x.size - 1 else set()
                x = np.delete(x, j)
                C = np.column_stack([1.0 / (x - node) for node in y])
                A, ph, called = next(calls)
                assert called == variant
                full = interpolatory_system(C, ph, variant)
                assert (A.dtype, A.shape) == (full.dtype, full.shape)
                assert A.tobytes() == full.tobytes()
                assert next(quotients).tobytes() == C.astype(complex).tobytes()
            picked |= {"wide"} if A.shape[0] < A.shape[1] else set()
        assert next(calls, None) is None and next(quotients, None) is None
        assert picked == {"first", "last", "wide"}

    def test_one_error_pass_picks_as_greedy_select(self, monkeypatch):
        # each iteration's |F - r| gives both its max error and the next
        # node; at every iteration of the four figure fits and of the two
        # tol = 0 fits to m_max = 40 the pick is greedy_select's and the
        # error np.max's, and the caller's test nodes are left as they were
        values = []

        def record_quotient(C, *coefficients, quotient=node_quotient):
            values.append(quotient(C, *coefficients))
            return values[-1]

        monkeypatch.setattr(aaa, "node_quotient", record_quotient)
        configs = list(FIGURE_FITS.values())
        configs += [AaaConfig(m_max=40, tol=0.0, variant=variant) for variant in VARIANTS]
        picks = 0
        for config in configs:
            values.clear()
            x = FIT_GRID.copy()
            before = x.tobytes()
            trace = aaa_fit(x, config)[1]
            assert x.tobytes() == before
            r = np.full(x.size, np.exp(1j * x).mean())
            for step, r_next in zip(trace.iterations, values):
                F = np.exp(1j * x)
                assert x[greedy_select(F, r)] == step.node
                x, r = x[x != step.node], r_next
                assert step.max_error == float(np.max(np.abs(np.exp(1j * x) - r)))
                picks += 1
            assert len(values) == len(trace.iterations)
        # every fit runs to its m_max
        assert picks == sum(config.m_max for config in configs) == 138

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            aaa_fit([1.0], AaaConfig(m_max=1))
        with pytest.raises(InvalidInputError):
            aaa_fit([1.0, 1.0], AaaConfig(m_max=1))
        with pytest.raises(InvalidInputError):
            aaa_fit([1.0, 2.0], AaaConfig(m_max=2))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_too_few_lawson_test_nodes_rejected_early(self, monkeypatch, variant):
        # iteration m leaves 41 - m test nodes, fewer than the m - 1 the
        # Lawson steps need from m = 22 on: the fit raises there, after 21
        # solved iterations, and not after all 30.  Without Lawson steps it
        # runs all 30
        solved = []
        coefficients = aaa.interpolatory_coefficients

        def count(*args):
            solved.append(args[0].shape[1])
            return coefficients(*args)
        monkeypatch.setattr(aaa, "interpolatory_coefficients", count)
        x = np.linspace(-3.0, 3.0, 41)
        with pytest.raises(InvalidInputError,
                           match="22 support nodes need at least 21 test nodes, got 19"):
            aaa_fit(x, AaaConfig(m_max=30, tol=0.0, variant=variant, n_lawson=2))
        assert solved == list(range(1, 22))
        solved.clear()
        _, trace = aaa_fit(x, AaaConfig(m_max=30, tol=0.0, variant=variant))
        assert len(solved) == len(trace.iterations) == 30

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
        {"m_max": 3, "tol": "x"},
        {"m_max": 3, "tol": None},
        {"m_max": 3, "tol": True},
    ])
    def test_rejects_non_integer_counts_and_nan_tol(self, kwargs):
        with pytest.raises(InvalidInputError):
            AaaConfig(**kwargs)

    def test_integer_types_accepted(self):
        config = AaaConfig(m_max=np.int64(3), n_lawson=np.int32(0))
        assert config.m_max == 3

    def test_subnormal_node_spacing_rejected(self):
        # 1 / (x_k - y_j) would overflow to inf in the first Cauchy column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="nodes 0.0 and 5.3e-322"):
                aaa_fit(np.linspace(0, 1e-320, 20), AaaConfig(m_max=3))


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
