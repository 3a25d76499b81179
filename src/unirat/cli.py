"""Command-line front end: fit approximants and reproduce the error and
unitarity experiments as CSV/JSON artifacts."""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .aaa import AaaConfig, aaa_fit
from .barycentric import (
    BarycentricInterpolant,
    CayleyApproximant,
    NonInterpolatoryApproximant,
)
from .diagnostics import (
    cayley_residual,
    max_error,
    real_axis_pole_scan,
    unitarity_deviation,
)
from .errors import InvalidInputError, UniratError
from .pade import PadeApproximant

FIT_INTERVAL = (-13.9, 13.9)
FIT_NODES = 2000
EVAL_INTERVAL = (-40.0, 40.0)
EVAL_NODES = 10001
FIGURE_TOL = 1e-12
FIGURE_LAWSON_STEPS = 20


def approximant_to_dict(approx):
    if isinstance(approx, NonInterpolatoryApproximant):
        return {
            "kind": "noninterpolatory",
            "support": approx.support.tolist(),
            "alpha_re": approx.alpha.real.tolist(),
            "alpha_im": approx.alpha.imag.tolist(),
            "beta_re": approx.beta.real.tolist(),
            "beta_im": approx.beta.imag.tolist(),
        }
    kind = "cayley" if isinstance(approx, CayleyApproximant) else "interpolatory"
    return {
        "kind": kind,
        "support": approx.support.tolist(),
        "coeff_re": approx.coefficients.real.tolist(),
        "coeff_im": approx.coefficients.imag.tolist(),
    }


def approximant_from_dict(doc):
    kind = doc["kind"]
    support = np.asarray(doc["support"], dtype=float)
    if kind == "noninterpolatory":
        alpha = np.asarray(doc["alpha_re"]) + 1j * np.asarray(doc["alpha_im"])
        beta = np.asarray(doc["beta_re"]) + 1j * np.asarray(doc["beta_im"])
        return NonInterpolatoryApproximant(support=support, alpha=alpha, beta=beta)
    if kind not in ("cayley", "interpolatory"):
        raise InvalidInputError(f"unknown approximant kind {kind!r}")
    coeff = np.asarray(doc["coeff_re"]) + 1j * np.asarray(doc["coeff_im"])
    if kind == "cayley":
        return CayleyApproximant(support=support, coefficients=coeff)
    return BarycentricInterpolant(support=support, coefficients=coeff)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


def write_csv(path, header, columns):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_nodes(path):
    nodes = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    nodes.append(float(line))
                except ValueError:
                    raise InvalidInputError(
                        f"{path}:{lineno}: not a number: {line!r}"
                    ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read node file {path}: {exc}") from None
    return np.asarray(nodes)


def interval_grid(a, b, n):
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b or n < 2:
        raise InvalidInputError(f"degenerate interval [{a}, {b}] with {n} nodes")
    return np.linspace(a, b, n)


def _fit_metrics(approx, grid):
    scan = real_axis_pole_scan(approx, grid)
    metrics = {
        "max_error": max_error(approx, grid),
        "unitarity_deviation": unitarity_deviation(approx, grid),
        "pole_scan": {
            "min_denominator": scan.min_denominator,
            "location": scan.location,
            "threshold": scan.threshold,
            "flagged": scan.flagged,
        },
    }
    if hasattr(approx, "coefficients"):
        metrics["cayley_residual"] = cayley_residual(approx.coefficients, approx.support)
    else:
        metrics["cayley_residual"] = cayley_residual(
            np.conj(approx.alpha), approx.support
        )
    return metrics


def cmd_fit(args):
    if args.nodes is not None:
        grid = load_nodes(args.nodes)
        if grid.size < 2:
            raise InvalidInputError("node file must contain at least 2 nodes")
    else:
        grid = interval_grid(args.interval[0], args.interval[1], args.n_test)

    config = AaaConfig(
        m_max=args.m_max, tol=args.tol, variant=args.variant, n_lawson=args.lawson
    )
    approx, trace = aaa_fit(grid, config)

    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "approximant.json"), approximant_to_dict(approx))

    header = ["m", "node", "max_error", "sigma_min", "degenerate"]
    rows = [
        (it.m, it.node, it.max_error, it.sigma_min, float(it.degenerate))
        for it in trace.iterations
    ]
    if trace.lawson is not None:
        for st in trace.lawson.steps:
            rows.append((len(trace.iterations) + st.step, st.worst_node,
                         st.max_error, st.sigma_min, 0.0))
    write_csv(os.path.join(args.out, "trace.csv"), header,
              list(zip(*rows)) if rows else [[]] * len(header))

    metrics = _fit_metrics(approx, grid)
    metrics["converged"] = trace.converged
    metrics["stop_reason"] = trace.stop_reason
    write_json(os.path.join(args.out, "metrics.json"), metrics)
    return 0


def _figure_metadata():
    return {
        "fit_interval": list(FIT_INTERVAL),
        "fit_nodes": FIT_NODES,
        "eval_interval": list(EVAL_INTERVAL),
        "eval_nodes": EVAL_NODES,
        "tol": FIGURE_TOL,
        "lawson_steps": FIGURE_LAWSON_STEPS,
        "pade_degree": 13,
        "aaa_support_nodes": 15,
        "lawson_support_nodes": 14,
        "seeds": None,
    }


def cmd_figure(args):
    os.makedirs(args.out, exist_ok=True)
    fit_grid = interval_grid(*FIT_INTERVAL, FIT_NODES)

    if args.which == 1:
        pade = PadeApproximant(degree=13)
        lawson, _ = aaa_fit(
            fit_grid,
            AaaConfig(m_max=14, tol=FIGURE_TOL, variant="modified",
                      n_lawson=FIGURE_LAWSON_STEPS),
        )
        target = np.exp(1j * fit_grid)
        write_csv(
            os.path.join(args.out, "figure1.csv"),
            ["x", "abserr_pade13", "abserr_aaalawson_13_13"],
            [fit_grid,
             np.abs(pade.eval(fit_grid) - target),
             np.abs(lawson.eval(fit_grid) - target)],
        )
        write_json(os.path.join(args.out, "figure1_metadata.json"), _figure_metadata())
        return 0

    eval_grid = interval_grid(*EVAL_INTERVAL, EVAL_NODES)
    fits = {
        "unitdev_aaa_orig": aaa_fit(
            fit_grid, AaaConfig(m_max=15, tol=FIGURE_TOL, variant="original"))[0],
        "unitdev_aaa_mod": aaa_fit(
            fit_grid, AaaConfig(m_max=15, tol=FIGURE_TOL, variant="modified"))[0],
        "unitdev_lawson_orig": aaa_fit(
            fit_grid, AaaConfig(m_max=14, tol=FIGURE_TOL, variant="original",
                                n_lawson=FIGURE_LAWSON_STEPS))[0],
        "unitdev_lawson_mod": aaa_fit(
            fit_grid, AaaConfig(m_max=14, tol=FIGURE_TOL, variant="modified",
                                n_lawson=FIGURE_LAWSON_STEPS))[0],
    }
    columns = [eval_grid]
    header = ["x"]
    for name, approx in fits.items():
        header.append(name)
        columns.append(np.abs(np.abs(approx.eval(eval_grid)) - 1.0))
    write_csv(os.path.join(args.out, "figure2.csv"), header, columns)
    write_json(os.path.join(args.out, "figure2_metadata.json"), _figure_metadata())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="unirat",
        description="Unitary barycentric rational approximation of exp(ix)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit an approximant and write artifacts")
    src = fit.add_mutually_exclusive_group()
    src.add_argument("--interval", nargs=2, type=float, default=list(FIT_INTERVAL),
                     metavar=("A", "B"))
    src.add_argument("--nodes", help="file with one node per line, '#' comments")
    fit.add_argument("--n-test", type=int, default=FIT_NODES)
    fit.add_argument("--m-max", type=int, default=14)
    fit.add_argument("--tol", type=float, default=1e-13)
    fit.add_argument("--variant", choices=("original", "modified"), default="modified")
    fit.add_argument("--lawson", type=int, default=0)
    fit.add_argument("--out", default=".")
    fit.set_defaults(func=cmd_fit)

    fig = sub.add_parser("figure", help="reproduce an experiment as CSV")
    fig.add_argument("which", type=int, choices=(1, 2))
    fig.add_argument("--out", default=".")
    fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UniratError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
