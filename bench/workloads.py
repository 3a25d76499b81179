"""The benchmark's workloads: seeded inputs, one cycle of operations, checks.

A workload's ``setup`` makes every input from the seed and does the work a
user pays once (pre-fits).  ``ops`` returns one cycle of operations, after
making any reference values its checks need; the runner repeats whole cycles,
so every run of an operation sees the same inputs.  Each operation carries a
check that raises ``CheckFailed`` and otherwise returns the achieved errors;
it runs on an operation's first output, and every later output must repeat
that one bit for bit.
"""

import dataclasses
import hashlib
import json
import os
from typing import Callable

import numpy as np

import unirat
from unirat import cli
from unirat.linalg import EPS

FIT_GRID = np.linspace(-13.9, 13.9, 2000)
EVAL_GRID = np.linspace(-40.0, 40.0, 10001)
FIGURE_TOL = 1e-12

#: The four ``conftest.figure_fits`` configurations behind the paper's figures.
FIGURE_FITS = {
    "aaa_mod": dict(m_max=15, variant="modified"),
    "lawson_mod": dict(m_max=14, variant="modified", n_lawson=20),
    "aaa_orig": dict(m_max=15, variant="original"),
    "lawson_orig": dict(m_max=14, variant="original", n_lawson=20),
}

#: Fits per cycle: the cheap ones repeat so their medians have samples enough
#: to be steady; lawson_orig alone takes ~30 s.
FIGURE_REPEATS = {"aaa_mod": 8, "lawson_mod": 1, "aaa_orig": 2, "lawson_orig": 1}

#: Per-fit seconds in ROADMAP "Recent" (2 cores, Python 3.11.7, NumPy 2.4.6).
ROADMAP_RECENT_S = {"aaa_mod": 0.22, "lawson_mod": 3.96, "aaa_orig": 2.14,
                    "lawson_orig": 35.7}

#: The small-systems shapes are fixed, so per-layer counts (calls, elements,
#: work, iterations) do not depend on the seed; the seed draws the node values.
SCHEDULE_SEED = 20221024
SYSTEMS_PER_CYCLE = 40
FIT_CONFIGS_PER_CYCLE = 16

EVAL_POINTS = 2_000_000
EVAL_M_MAX = 15
#: Diagnostics and writes take milliseconds; repeating them in each cycle
#: gives their medians enough samples.
IN_CACHE_REPEATS = 8


class CheckFailed(Exception):
    """An operation's output failed its correctness check."""


@dataclasses.dataclass
class Op:
    """One operation; a cycle may hold the same Op several times, and every
    run of it must give a bit-identical output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    #: Bytes identifying the output, for the repeat and traced-run checks;
    #: ``None`` hashes the returned object.
    identity: Callable[[object], object] = None


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class FigureFits:
    name = "figure-fits"
    kinds = tuple("fit_s." + name for name in FIGURE_FITS)

    def setup(self, seed, workdir):
        fits = [name for name, count in FIGURE_REPEATS.items() for _ in range(count)]
        order = np.random.default_rng(seed).permutation(fits)
        return {"grid": FIT_GRID.copy(), "order": [str(n) for n in order]}

    def ops(self, state):
        grid = state["grid"]
        ops = {name: Op("fit_s." + name, self._fit(grid, name), self._check(grid, name))
               for name in FIGURE_FITS}
        return [ops[name] for name in state["order"]]

    @staticmethod
    def _fit(grid, name):
        config = unirat.AaaConfig(tol=FIGURE_TOL, **FIGURE_FITS[name])
        return lambda: unirat.aaa_fit(grid, config)

    @staticmethod
    def _check(grid, name):
        def check(out):
            approx = out[0]
            achieved = {
                "max_error." + name: unirat.max_error(approx, grid),
                "dev_at_35." + name: unirat.unitarity_deviation(approx, np.array([35.0])),
            }
            _require(achieved["max_error." + name] <= FIGURE_TOL,
                     f"{name}: max error above {FIGURE_TOL}")
            if name.endswith("_mod"):
                dev = unirat.unitarity_deviation(approx, EVAL_GRID)
                achieved["unitarity." + name] = dev
                _require(dev <= 1e-15, f"{name}: unitarity deviation above 1e-15")
            return achieved
        return check

    def warmup(self, ops):
        """The cheapest fit: a whole untimed pass would cost ~40 s."""
        return [op for op in ops if op.kind == "fit_s.aaa_mod"][:1]

    def cycle_check(self, achieved):
        """Each original variant drifts >= 10x its modified one at x = 35."""
        failures = []
        for stem in ("aaa", "lawson"):
            orig = achieved.get(f"dev_at_35.{stem}_orig")
            mod = achieved.get(f"dev_at_35.{stem}_mod")
            if orig is not None and mod is not None and not orig >= 10.0 * mod:
                failures.append(f"{stem}_orig drifts < 10x {stem}_mod at x = 35")
        return failures

    def named(self, stats, raw):
        out = {}
        for kind in self.kinds:
            name = kind.split(".", 1)[1]
            out[kind] = dict(_timing(stats[kind]), raw_s=raw[kind]["median"],
                             roadmap_recent_s=ROADMAP_RECENT_S[name])
        out["four_fits_s"] = {
            "value": sum(stats[kind]["median"] for kind in self.kinds), "unit": "s",
            "raw_s": sum(raw[kind]["median"] for kind in self.kinds),
            "roadmap_recent_s": sum(ROADMAP_RECENT_S.values())}
        return out


class SmallSystems:
    name = "small-systems"
    kinds = ("system", "fit.modified", "fit.original")

    def __init__(self):
        rng = np.random.default_rng(SCHEDULE_SEED)
        self.shapes = []
        for _ in range(SYSTEMS_PER_CYCLE):
            m = int(rng.integers(1, 13))
            self.shapes.append((m, int(rng.integers(max(m - 1, 1), 61))))
        self.fit_configs = [(int(rng.integers(40, 201)), int(rng.integers(3, 9)))
                            for _ in range(FIT_CONFIGS_PER_CYCLE)]

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        systems = []
        for m, n in self.shapes:
            pts = _distinct(rng, -15.0, 15.0, n + m)
            systems.append((pts[:n], pts[n:], 10.0 ** rng.uniform(-3.0, 0.0, size=n)))
        fits = []
        for count, m_max in self.fit_configs:
            a = rng.uniform(5.0, 15.0)
            fits.append((np.sort(_distinct(rng, -a, a, count)), m_max))
        # kinds interleave, so slow drifts of machine speed reach each alike
        order = rng.permutation(len(systems) + 2 * len(fits))
        return {"systems": systems, "fits": fits, "order": order}

    def ops(self, state):
        ops = [Op("system", self._system(*s), self._check_system)
               for s in state["systems"]]
        for nodes, m_max in state["fits"]:
            for variant in ("modified", "original"):
                config = unirat.AaaConfig(m_max=m_max, tol=0.0, variant=variant)
                ops.append(Op("fit." + variant, self._fit(nodes, config),
                              self._fit_check(nodes, config)))
        return [ops[i] for i in state["order"]]

    def warmup(self, ops):
        """One operation of each kind, for lazy set-up inside NumPy."""
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        return list(first.values())

    @staticmethod
    def _system(x, y, mu):
        def run():
            nodes = unirat.NodeSet(test_nodes=x, support_nodes=y, weights=mu)
            coeff = unirat.min_singular_coefficients(
                unirat.rescaled_loewner(nodes), unirat.phase_diagonals(nodes))
            alpha, beta = unirat.min_singular_pair(unirat.bhat(nodes))
            expanded = unirat.expanded_loewner(nodes)
            return y, coeff, alpha, beta, expanded, unirat.svd_complex(expanded)
        return run

    @staticmethod
    def _check_system(out):
        y, coeff, alpha, beta, A, svd = out
        w = coeff.coefficients
        fw = float(np.max(np.abs(np.exp(1j * y) * w - np.conj(w))))
        ab = float(np.max(np.abs(alpha - np.conj(beta))))
        s, V, U = svd.singular_values, svd.right_vectors, svd.left_vectors
        k = U.shape[1]
        AV = A @ V
        residual = max(float(np.max(np.abs(AV[:, :k] - U * s[:k]))),
                       float(np.max(np.abs(AV[:, k:]), initial=0.0))) / s[0]
        orth = float(np.max(np.abs(V.conj().T @ V - np.eye(V.shape[1]))))
        _require(fw <= 4 * EPS, f"|f w - conj w| = {fw:.3e} above 4 eps")
        _require(ab <= 4 * EPS, f"|alpha - conj beta| = {ab:.3e} above 4 eps")
        _require(residual <= 1e-12, f"complex SVD residual {residual:.3e}")
        _require(orth <= 1e-12, f"complex SVD V orthonormality {orth:.3e}")
        _require(bool(np.all(np.diff(s) <= 0.0)), "singular values not descending")
        return {"system.fw_residual": fw, "system.alpha_conj_beta": ab,
                "system.svd_complex_residual": residual,
                "system.svd_complex_orthonormality": orth}

    @staticmethod
    def _fit(nodes, config):
        return lambda: unirat.aaa_fit(nodes, config)

    @staticmethod
    def _fit_check(nodes, config):
        def check(out):
            approx, trace = out
            _require(len(trace.iterations) == config.m_max,
                     "tol=0 fit stopped before m_max")
            # the fit error over all nodes, support nodes included, is the
            # error the trace reports for the last iterate
            err = unirat.max_error(approx, nodes)
            gap = abs(err - trace.iterations[-1].max_error)
            _require(gap <= 1e-12, f"fit error {err:.3e} disagrees with trace by {gap:.1e}")
            achieved = {"fit.error_gap": gap}
            if config.variant == "modified":
                achieved["fit.fw_residual"] = approx.phase_residual
                _require(approx.phase_residual <= 4 * EPS,
                         f"|f w - conj w| = {approx.phase_residual:.3e} above 4 eps")
                dev = unirat.unitarity_deviation(approx, nodes)
                achieved["fit.unitarity"] = dev
                _require(dev <= 1e-15, f"unitarity deviation {dev:.3e} above 1e-15")
            return achieved
        return check

    def cycle_check(self, achieved):
        return []

    def named(self, stats, raw):
        fits = stats["fit.modified"]["n"] + stats["fit.original"]["n"]
        return {
            "systems_per_s": {"value": stats["system"]["n"] / stats["system"]["sum"],
                              "unit": "1/s", "n": stats["system"]["n"]},
            "fits_per_s": {"value": fits / (stats["fit.modified"]["sum"]
                                            + stats["fit.original"]["sum"]),
                           "unit": "1/s", "n": fits},
        }


def _distinct(rng, lo, hi, size):
    while True:
        pts = rng.uniform(lo, hi, size=size)
        if np.unique(pts).size == size:
            return pts


class Evaluate:
    name = "evaluate"
    kinds = ("eval", "diag", "write")

    def setup(self, seed, workdir):
        mod = unirat.aaa_fit(FIT_GRID, unirat.AaaConfig(
            m_max=EVAL_M_MAX, tol=FIGURE_TOL, variant="modified"))[0]
        orig = unirat.aaa_fit(FIT_GRID, unirat.AaaConfig(
            m_max=EVAL_M_MAX, tol=FIGURE_TOL, variant="original"))[0]
        rest = FIT_GRID[~np.isin(FIT_GRID, orig.support)]
        lawson = unirat.lawson_fit(rest, orig.support,
                                   unirat.LawsonConfig(n_lawson=1, variant="original"))[0]
        # the inputs are the paper's fixed approximants, whatever the seed; a
        # seeded evaluation order would move peak RSS by one 32 MB result
        approx = {"aaa_mod": mod, "aaa_orig": orig, "lawson1_orig": lawson,
                  "pade13": unirat.PadeApproximant(13)}
        return {"approx": approx, "big": np.linspace(-40.0, 40.0, EVAL_POINTS),
                "workdir": workdir}

    def ops(self, state):
        # reference values for the checks, and the write step's input, are
        # the benchmark's own work, so they are made here, outside set-up
        approx, big = state["approx"], state["big"]
        state["reference"] = _eval_all(approx, big)
        state["diag"] = _diagnostics(approx)
        diag = Op("diag", lambda: _diagnostics(approx), self._check_diag(state))
        write = Op("write", lambda: self._write(state), self._check_write(state),
                   identity=self._written)
        evaluate = Op("eval", lambda: _eval_all(approx, big), self._check_eval(state))
        return [evaluate] + [diag, write] * IN_CACHE_REPEATS

    def warmup(self, ops):
        return []  # ops() has just evaluated everything for the references

    @staticmethod
    def _check_eval(state):
        def check(out):
            for name, ref in state["reference"].items():
                _require(bits_equal(out[name], ref),
                         f"{name}: large-grid values differ from set-up")
            return {}
        return check

    @staticmethod
    def _check_diag(state):
        def check(out):
            achieved = {}
            for name, d in out.items():
                achieved[f"max_error.{name}"] = d["max_error"]
                achieved[f"unitarity.{name}"] = d["unitarity"]
                _require(not d["pole_scan"].flagged, f"{name}: pole flagged")
                _require(bool(np.all(np.isfinite(d["column"]))), f"{name}: non-finite")
            for name in ("aaa_mod", "aaa_orig"):
                _require(out[name]["max_error"] <= FIGURE_TOL,
                         f"{name}: max error above {FIGURE_TOL}")
            _require(out["aaa_mod"]["unitarity"] <= 1e-15,
                     "aaa_mod: unitarity deviation above 1e-15")
            _require(digest(out) == digest(state["diag"]),
                     "diagnostics differ from set-up")
            return achieved
        return check

    @staticmethod
    def _write(state):
        out, diag = state["workdir"], state["diag"]
        names = list(diag)
        cli.write_csv(os.path.join(out, "figure2.csv"),
                      ["x"] + ["unitdev_" + n for n in names],
                      [EVAL_GRID] + [diag[n]["column"] for n in names])
        cli.write_json(os.path.join(out, "figure2_metadata.json"),
                       {"figure": 2, "fit_nodes": FIT_GRID.size,
                        "eval_nodes": EVAL_GRID.size, "tol": FIGURE_TOL})
        for name, approx in state["approx"].items():
            if name == "pade13":
                continue
            os.makedirs(os.path.join(out, name), exist_ok=True)
            cli.write_json(os.path.join(out, name, "approximant.json"),
                           cli.approximant_to_dict(approx))
            cli.write_json(os.path.join(out, name, "metrics.json"), _metrics(diag[name]))
        return out

    @staticmethod
    def _written(out):
        files = []
        for base, _, names in sorted(os.walk(out)):
            for name in sorted(names):
                with open(os.path.join(base, name), "rb") as fh:
                    files.append((os.path.relpath(os.path.join(base, name), out),
                                  fh.read()))
        return files

    @staticmethod
    def _check_write(state):
        def check(out):
            diag = state["diag"]
            with open(os.path.join(out, "figure2.csv")) as fh:
                rows = fh.read().splitlines()[1:]
            table = np.array([[float(v) for v in r.split(",")] for r in rows])
            columns = [EVAL_GRID] + [diag[n]["column"] for n in diag]
            _require(bits_equal(table, np.column_stack(columns)),
                     "figure2.csv does not round-trip")
            for name, approx in state["approx"].items():
                if name == "pade13":
                    continue
                with open(os.path.join(out, name, "approximant.json")) as fh:
                    loaded = cli.approximant_from_dict(json.load(fh))
                _require(bits_equal(loaded.eval(EVAL_GRID), approx.eval(EVAL_GRID)),
                         f"{name}: approximant.json does not reload bit-identically")
                with open(os.path.join(out, name, "metrics.json")) as fh:
                    _require(json.load(fh) == _metrics(diag[name]),
                             f"{name}: metrics.json does not round-trip")
            return {}
        return check

    def cycle_check(self, achieved):
        return []

    def named(self, stats, raw):
        points = EVAL_POINTS * 4
        return {
            "eval_mpts_per_s": {"value": points / 1e6 / stats["eval"]["median"],
                                "unit": "Mpt/s", "n": stats["eval"]["n"]},
            "diag_s": _timing(stats["diag"]),
            "write_s": _timing(stats["write"]),
            # computed size of one n x m complex temporary; compare machine.caches
            "eval_temporary_mb": {"value": EVAL_POINTS * EVAL_M_MAX * 16 / 1e6,
                                  "unit": "MB"},
        }


def _timing(stat):
    """A kind's median seconds, with its sample count and tail percentile."""
    extra = {k: v for k, v in stat.items() if k not in ("median", "sum")}
    return {"value": stat["median"], "unit": "s", **extra}


def _eval_all(approx, grid):
    return {name: a.eval(grid) for name, a in approx.items()}


def _diagnostics(approx):
    """The figure-2 diagnostics of each approximant."""
    out = {}
    for name, a in approx.items():
        out[name] = {
            "max_error": unirat.max_error(a, FIT_GRID),
            "unitarity": unirat.unitarity_deviation(a, EVAL_GRID),
            "pole_scan": unirat.real_axis_pole_scan(a, EVAL_GRID),
            "column": np.abs(np.abs(a.eval(EVAL_GRID)) - 1.0),
        }
    return out


def _metrics(d):
    return {"max_error": d["max_error"], "unitarity_deviation": d["unitarity"],
            "pole_scan": dataclasses.asdict(d["pole_scan"])}


def digest(obj):
    """SHA-256 over every array, number and string reachable from ``obj``."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, bytes):
        h.update(obj)
    else:
        h.update(repr(obj).encode())


WORKLOADS = {w.name: w for w in (FigureFits, SmallSystems, Evaluate)}
