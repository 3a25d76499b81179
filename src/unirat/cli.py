"""Command-line front end: fit approximants and reproduce the error and
unitarity experiments as CSV/JSON artifacts."""

import argparse
import dataclasses
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
    cayley_phase_residual,
)
from .diagnostics import max_error, real_axis_pole_scan, unitarity_deviation
from .errors import InvalidInputError, UniratError
from .loewner import VARIANTS
from .pade import PadeApproximant

FIT_INTERVAL = (-13.9, 13.9)
FIT_NODES = 2000
EVAL_INTERVAL = (-40.0, 40.0)
EVAL_NODES = 10001
FIGURE_TOL = 1e-12
FIGURE_LAWSON_STEPS = 20


#: Approximant classes by JSON kind tag.
KINDS = {cls.KIND: cls for cls in
         (BarycentricInterpolant, CayleyApproximant, NonInterpolatoryApproximant)}
#: JSON key stem of each coefficient field; a vector c is stored as the
#: lists ``<stem>_re`` and ``<stem>_im``.
KEY_STEMS = {"coefficients": "coeff", "alpha": "alpha", "beta": "beta"}
#: complex(re, im) elementwise; unlike re + 1j * im, it keeps signed zeros.
_complex = np.vectorize(complex, otypes=[complex])


def approximant_to_dict(approx):
    doc = {"kind": approx.KIND, "support": approx.support.tolist()}
    for name in approx.COEFFICIENTS:
        c = getattr(approx, name)
        doc[KEY_STEMS[name] + "_re"] = c.real.tolist()
        doc[KEY_STEMS[name] + "_im"] = c.imag.tolist()
    return doc


def approximant_from_dict(doc):
    if not isinstance(doc, dict):
        raise InvalidInputError("an approximant document must be a JSON object")
    cls = KINDS.get(str(doc.get("kind")))
    if cls is None:
        raise InvalidInputError(f"unknown approximant kind {doc.get('kind')!r}")
    try:
        support = np.asarray(doc["support"], dtype=float)
        coeffs = {name: _complex(doc[KEY_STEMS[name] + "_re"], doc[KEY_STEMS[name] + "_im"])
                  for name in cls.COEFFICIENTS}
    except KeyError as exc:
        raise InvalidInputError(f"approximant document lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed approximant document: {exc}") from None
    return cls(support=support, **coeffs)


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
    metrics = {
        "max_error": max_error(approx, grid),
        "unitarity_deviation": unitarity_deviation(approx, grid),
        "pole_scan": dataclasses.asdict(real_axis_pole_scan(approx, grid)),
    }
    w = getattr(approx, approx.COEFFICIENTS[0])
    if approx.COEFFICIENTS == ("alpha", "beta"):
        w = np.conj(w)  # alpha = conj(w) in the Cayley form
    metrics["cayley_residual"] = cayley_phase_residual(w, approx.support)
    return metrics


def cmd_fit(args):
    if args.nodes is not None:
        grid = load_nodes(args.nodes)
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
    write_csv(os.path.join(args.out, "trace.csv"), header, list(zip(*rows)))

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


def _figure_fit(grid, variant, lawson):
    """A figure's fit: 15 AAA support nodes, or 14 refined by Lawson steps."""
    config = AaaConfig(m_max=14 if lawson else 15, tol=FIGURE_TOL, variant=variant,
                       n_lawson=FIGURE_LAWSON_STEPS if lawson else 0)
    return aaa_fit(grid, config)[0]


def cmd_figure(args):
    os.makedirs(args.out, exist_ok=True)
    fit_grid = interval_grid(*FIT_INTERVAL, FIT_NODES)

    if args.which == 1:
        pade = PadeApproximant(degree=13)
        lawson = _figure_fit(fit_grid, "modified", lawson=True)
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
    columns = [eval_grid]
    header = ["x"]
    for name, variant, lawson in (("aaa_orig", "original", False),
                                  ("aaa_mod", "modified", False),
                                  ("lawson_orig", "original", True),
                                  ("lawson_mod", "modified", True)):
        approx = _figure_fit(fit_grid, variant, lawson)
        header.append("unitdev_" + name)
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
    fit.add_argument("--variant", choices=VARIANTS, default="modified")
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
