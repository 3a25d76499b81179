"""Acceptance gate: seven end-to-end criteria.

Each test prints exactly one ``CRITERION n: PASS/FAIL (...)`` line (visible
with ``pytest -s``) and then asserts the same condition.  Stated runtime
budgets include the shared figure-fit build times where a criterion consumes
those fits.
"""

import itertools
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

from unirat import (
    AaaConfig,
    BarycentricInterpolant,
    NodeSet,
    PadeApproximant,
    aaa_fit,
    bhat,
    expanded_loewner,
    max_error,
    min_singular_coefficients,
    min_singular_pair,
    phase_diagonals,
    rescaled_loewner,
    svd_complex,
    svd_real,
    unitarity_deviation,
    weighted_loewner,
)
from unirat.linalg import EPS

from conftest import EVAL_GRID, FIT_GRID, partial_fraction

mp.mp.dps = 50


def report(number, ok, detail):
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


class TestCriterion1:
    def test_error_figure(self, figure_fits):
        t0 = time.perf_counter()
        lawson, _, fit_seconds = figure_fits["lawson_mod"]
        lawson_err = max_error(lawson, FIT_GRID)
        pade = PadeApproximant(degree=13)
        end_err = [
            abs(complex(pade.eval(x)) - np.exp(1j * x)) for x in (-13.9, 13.9)
        ]
        elapsed = time.perf_counter() - t0 + fit_seconds
        ok = (
            lawson_err <= 1e-12
            and all(1e-6 <= e <= 1e-4 for e in end_err)
            and elapsed <= 30.0
        )
        report(
            1,
            ok,
            f"lawson(13,13) max err {lawson_err:.2e} <= 1e-12, pade-13 endpoint "
            f"errs {end_err[0]:.2e}/{end_err[1]:.2e} in [1e-6,1e-4], "
            f"{elapsed:.1f}s <= 30s",
        )


class TestCriterion2:
    def test_unitarity_figure(self, figure_fits):
        t0 = time.perf_counter()
        fit_seconds = sum(figure_fits[k][2] for k in figure_fits)
        devs = {}
        at35 = {}
        for name in ("aaa_mod", "lawson_mod", "aaa_orig", "lawson_orig"):
            approx = figure_fits[name][0]
            devs[name] = unitarity_deviation(approx, EVAL_GRID)
            at35[name] = unitarity_deviation(approx, np.array([35.0]))
        elapsed = time.perf_counter() - t0 + fit_seconds
        ok = (
            devs["aaa_mod"] <= 1e-15
            and devs["lawson_mod"] <= 1e-15
            and at35["aaa_orig"] >= 10 * at35["aaa_mod"]
            and at35["lawson_orig"] >= 10 * at35["lawson_mod"]
            and elapsed <= 60.0
        )
        report(
            2,
            ok,
            f"modified devs {devs['aaa_mod']:.2e}/{devs['lawson_mod']:.2e} <= 1e-15; "
            f"at x=35 orig/mod = {at35['aaa_orig']:.2e}/{at35['aaa_mod']:.2e} and "
            f"{at35['lawson_orig']:.2e}/{at35['lawson_mod']:.2e} (>= 10x); "
            f"{elapsed:.1f}s <= 60s",
        )


class TestCriterion3:
    def test_singular_vector_identities(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260823)
        worst_fw = worst_ab = worst_lw = worst_sig = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(max(m - 1, 1), 61))
            pts = rng.uniform(-15, 15, size=n + m)
            while len(set(pts.tolist())) != n + m:
                pts = rng.uniform(-15, 15, size=n + m)
            x, y = pts[:n], pts[n:]
            mu = 10.0 ** rng.uniform(-3, 0, size=n)
            nodes = NodeSet(test_nodes=x, support_nodes=y, weights=mu)

            res = min_singular_coefficients(
                rescaled_loewner(nodes), phase_diagonals(nodes)
            )
            w = res.coefficients
            f = np.exp(1j * y)
            worst_fw = max(worst_fw, float(np.max(np.abs(f * w - np.conj(w)))))

            sig = res.singular_values
            L = weighted_loewner(nodes)
            worst_lw = max(
                worst_lw,
                abs(np.linalg.norm(L @ w) - sig[-1]) / (16 * EPS * sig[0]),
            )

            alpha, beta = min_singular_pair(bhat(nodes))
            worst_ab = max(worst_ab, float(np.max(np.abs(alpha - np.conj(beta)))))

            sB = svd_real(bhat(nodes)).singular_values
            sX = svd_complex(expanded_loewner(nodes)).singular_values
            k = min(sB.size, sX.size)
            worst_sig = max(
                worst_sig,
                float(np.max(np.abs(np.sqrt(2) * sB[:k] - sX[:k])))
                / (8 * EPS * sX[0]),
            )
        elapsed = time.perf_counter() - t0
        ok = (
            worst_fw <= 4 * EPS
            and worst_ab <= 4 * EPS
            and worst_lw <= 1.0
            and worst_sig <= 1.0
            and elapsed <= 60.0
        )
        report(
            3,
            ok,
            f"200 node sets: |fw-w*| {worst_fw / EPS:.2f}eps <= 4eps, "
            f"|a-b*| {worst_ab / EPS:.2f}eps <= 4eps, "
            f"||Lw||-sigma ratio {worst_lw:.2f} <= 1, "
            f"sqrt2*sigma(Bhat)-sigma(X) ratio {worst_sig:.2f} <= 1; "
            f"{elapsed:.1f}s <= 60s",
        )


class TestCriterion4:
    def test_interpolation_case(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4)
        grid = np.linspace(-15, 15, 10001)
        worst_interp = worst_mod = 0.0
        accepted = 0
        while accepted < 100:
            m = int(rng.integers(2, 13))
            pts = rng.uniform(-15, 15, size=2 * m - 1)
            if len(set(pts.tolist())) != pts.size:
                continue
            x, y = pts[: m - 1], pts[m - 1 :]
            nodes = NodeSet(test_nodes=x, support_nodes=y)
            res = min_singular_coefficients(
                rescaled_loewner(nodes), phase_diagonals(nodes)
            )
            w = res.coefficients
            # keep draws whose barycentric quotient is well conditioned on
            # the whole grid, so the roundoff bound is meaningful
            D = grid[:, None] - y[None, :]
            d = (w[None, :] / D).sum(axis=1)
            s = (np.abs(w)[None, :] / np.abs(D)).sum(axis=1)
            if np.max(s / np.abs(d)) > 16.0:
                continue
            accepted += 1
            r = BarycentricInterpolant(support=y, coefficients=w)
            worst_interp = max(
                worst_interp,
                float(np.max(np.abs(r.eval(x) - np.exp(1j * x)))) / (1e3 * EPS),
            )
            nv, _ = partial_fraction(r.values * r.coefficients, y, grid)
            dv, _ = partial_fraction(r.coefficients, y, grid)
            worst_mod = max(
                worst_mod,
                float(np.max(np.abs(np.abs(nv) - np.abs(dv))
                             / (64 * EPS * np.abs(dv)))),
            )
        elapsed = time.perf_counter() - t0
        ok = worst_interp <= 1.0 and worst_mod <= 1.0 and elapsed <= 30.0
        report(
            4,
            ok,
            f"100 sets (n=m-1): interpolation residual ratio {worst_interp:.2f} "
            f"<= 1 (vs 1e3*eps), ||n|-|d|| ratio {worst_mod:.2f} <= 1 "
            f"(vs 64*eps*|d|); {elapsed:.1f}s <= 30s",
        )


def _trim(p):
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _deriv(p):
    n = len(p) - 1
    return _trim([c * (n - i) for i, c in enumerate(p[:-1])] or [Fraction(0)])


def _sub(a, b):
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + list(a)
    b = [Fraction(0)] * (n - len(b)) + list(b)
    return _trim([u - v for u, v in zip(a, b)])


def _div(a, b):
    a = [Fraction(c) for c in a]
    q = []
    while len(a) >= len(b):
        c = a[0] / b[0]
        q.append(c)
        for i in range(len(b)):
            a[i] -= c * b[i]
        a.pop(0)
    return _trim(q or [Fraction(0)]), _trim(a or [Fraction(0)])


def _gcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while any(b):
        _, r = _div(a, b)
        a, b = b, r
    return [c / a[0] for c in a]


def squarefree_factors(coeffs):
    """Yun decomposition: list of (monic factor, multiplicity)."""
    p = [Fraction(c) for c in coeffs]
    p = [c / p[0] for c in p]
    dp = _deriv(p)
    g = _gcd(p, dp)
    w, _ = _div(p, g)
    y, _ = _div(dp, g)
    z = _sub(y, _deriv(w))
    out = []
    i = 1
    while len(w) > 1:
        gi = _gcd(w, z) if any(z) else w
        if len(gi) > 1:
            out.append((gi, i))
        w, _ = _div(w, gi)
        y, _ = _div(z, gi)
        z = _sub(y, _deriv(w))
        i += 1
    return out


def charpoly_gram(A):
    """Exact characteristic polynomial of A^H A via the trace recurrence.

    Entries of A are small (Gaussian) integers, so every intermediate is an
    exact integer in float64/complex128 arithmetic.
    """
    G = A.conj().T @ A
    m = G.shape[0]
    M = np.eye(m, dtype=G.dtype)
    coeffs = [1]
    for k in range(1, m + 1):
        GM = G @ M
        c = int(round(-np.trace(GM).real / k))
        coeffs.append(c)
        M = GM + c * np.eye(m, dtype=G.dtype)
    return tuple(coeffs)


_ORACLE_CACHE = {}


def oracle_sigmas(A):
    """Descending singular values (with multiplicity) from the exact
    characteristic polynomial, roots refined in extended precision."""
    key = charpoly_gram(A)
    if key not in _ORACLE_CACHE:
        out = []
        for factor, mult in squarefree_factors(key):
            cs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in factor]
            for root in mp.polyroots(cs, maxsteps=200, extraprec=120):
                val = float(mp.sqrt(root.real)) if root.real > 0 else 0.0
                out.extend([val] * mult)
        _ORACLE_CACHE[key] = sorted(out, reverse=True)
    return _ORACLE_CACHE[key]


class TestCriterion5:
    def test_svd_oracle(self):
        t0 = time.perf_counter()
        worst = 0.0
        count = 0

        def check(A, svd):
            nonlocal worst, count
            count += 1
            sig = svd(A).singular_values
            ref = oracle_sigmas(np.asarray(A))[: sig.size]
            s1 = ref[0]
            for s, o in zip(sig, ref):
                worst = max(worst, abs(s - o) / (1e-12 * o + 64 * EPS * s1))

        shapes = [(r, c) for r in range(1, 5) for c in range(1, 5)]
        # real: exhaustive where the entry count is small, seeded samples for
        # the rest; complex likewise with entries in {0, +-1, +-i}
        rng = np.random.default_rng(5)
        cvals = np.array([0, 1, -1, 1j, -1j], dtype=complex)
        for r, c in shapes:
            if r * c <= 8:
                for entries in itertools.product((-1, 0, 1), repeat=r * c):
                    A = np.array(entries, dtype=float).reshape(r, c)
                    if A.any():
                        check(A, svd_real)
            else:
                for _ in range(1500):
                    A = rng.choice((-1.0, 0.0, 1.0), size=(r, c))
                    if A.any():
                        check(A, svd_real)
            if r * c <= 4:
                for entries in itertools.product(cvals, repeat=r * c):
                    A = np.array(entries).reshape(r, c)
                    if A.any():
                        check(A, svd_complex)
            else:
                for _ in range(400):
                    A = rng.choice(cvals, size=(r, c))
                    if A.any():
                        check(A, svd_complex)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1.0 and elapsed <= 120.0
        report(
            5,
            ok,
            f"{count} matrices vs exact-charpoly oracle, worst deviation "
            f"{worst:.2e} of (1e-12 rel + 64*eps*sigma1 floor); "
            f"{elapsed:.1f}s <= 120s",
        )


class TestCriterion6:
    def test_cross_variant_agreement(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(6)
        worst_ratio = worst_phase = 0.0
        accepted = 0
        while accepted < 50:
            N = int(rng.integers(40, 200))
            a = rng.uniform(5, 15)
            grid = np.sort(rng.uniform(-a, a, size=N))
            if len(set(grid.tolist())) != N:
                continue
            m_max = int(rng.integers(3, 9))
            rm, tm = aaa_fit(grid, AaaConfig(m_max=m_max, tol=0.0))
            ro, _ = aaa_fit(grid, AaaConfig(m_max=m_max, tol=0.0,
                                            variant="original"))
            # keep only configurations whose final minimization problem has a
            # well-separated smallest singular value
            y = rm.support
            rest = np.array([v for v in grid if v not in set(y.tolist())])
            sig = svd_real(
                rescaled_loewner(NodeSet(test_nodes=rest, support_nodes=y))
            ).singular_values
            if (
                tm.iterations[-1].degenerate
                or sig.size < 2
                or sig[-2] - sig[-1] <= 1e3 * EPS * sig[0]
            ):
                continue
            accepted += 1
            em, eo = max_error(rm, grid), max_error(ro, grid)
            worst_ratio = max(worst_ratio, max(em, eo) / min(em, eo))
            vm, vo = rm.eval(grid), ro.eval(grid)
            phase = vm[N // 2] / vo[N // 2]
            phase /= abs(phase)
            worst_phase = max(
                worst_phase,
                float(np.max(np.abs(vm - phase * vo))) / (1e3 * EPS),
            )
        elapsed = time.perf_counter() - t0
        ok = worst_ratio <= 10.0 and worst_phase <= 1.0 and elapsed <= 60.0
        report(
            6,
            ok,
            f"50 configs: max-error ratio {worst_ratio:.2f} <= 10, pointwise "
            f"phase-aligned ratio {worst_phase:.2f} <= 1 (vs 1e3*eps); "
            f"{elapsed:.1f}s <= 60s",
        )


class TestCriterion7:
    def test_lawson_endpoint_comparison(self, figure_fits):
        _, trace, _ = figure_fits["lawson_mod"]
        steps = trace.lawson.steps
        errors = [s.max_error for s in steps]
        ok = len(steps) >= 1 and errors[-1] <= errors[0]
        path = " -> ".join(f"{e:.2e}" for e in errors[:3])
        report(
            7,
            ok,
            f"{len(steps)} Lawson steps, max error {errors[0]:.2e} -> "
            f"{errors[-1]:.2e} (first steps: {path} ...)",
        )
