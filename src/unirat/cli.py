"""Command-line front end: fit approximants and reproduce the error and
unitarity experiments as CSV/JSON artifacts."""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .aaa import AaaConfig, aaa_fit
from .barycentric import (
    BarycentricInterpolant,
    CayleyApproximant,
    NonInterpolatoryApproximant,
)
from .diagnostics import (max_error, real_axis_pole_scan, structure_residual,
                          unitarity_deviation)
from .errors import InvalidInputError, UniratError
from .linalg import number_array
from .loewner import VARIANTS
from .pade import PadeApproximant

FIT_INTERVAL = (-13.9, 13.9)
FIT_NODES = 2000
EVAL_INTERVAL = (-40.0, 40.0)
EVAL_NODES = 10001
FIGURE_TOL = 1e-12
FIGURE_LAWSON_STEPS = 20
#: Degree of figure 1's Padé comparator.
PADE_DEGREE = 13
#: The paper's four figure fits, in figure 2's column order: 15 AAA support
#: nodes, or 14 refined by Lawson steps.
FIGURE_FITS = {
    "aaa_orig": AaaConfig(m_max=15, tol=FIGURE_TOL, variant="original"),
    "aaa_mod": AaaConfig(m_max=15, tol=FIGURE_TOL, variant="modified"),
    "lawson_orig": AaaConfig(m_max=14, tol=FIGURE_TOL, variant="original",
                             n_lawson=FIGURE_LAWSON_STEPS),
    "lawson_mod": AaaConfig(m_max=14, tol=FIGURE_TOL, variant="modified",
                            n_lawson=FIGURE_LAWSON_STEPS),
}


#: Approximant classes by JSON kind tag.
KINDS = {cls.KIND: cls for cls in
         (BarycentricInterpolant, CayleyApproximant, NonInterpolatoryApproximant)}
#: JSON key stem of each coefficient field; a vector c is stored as the
#: lists ``<stem>_re`` and ``<stem>_im``.
KEY_STEMS = {"coefficients": "coeff", "alpha": "alpha", "beta": "beta"}


def approximant_to_dict(approx):
    doc = {"kind": approx.KIND, "support": approx.support.tolist()}
    for name in approx.COEFFICIENTS:
        c = getattr(approx, name)
        doc[KEY_STEMS[name] + "_re"] = c.real.tolist()
        doc[KEY_STEMS[name] + "_im"] = c.imag.tolist()
    return doc


def _vector(doc, stem):
    """The complex vector stored as the lists ``<stem>_re`` and ``<stem>_im``:
    the (re, im) pairs viewed as complex, which, unlike re + 1j * im, keeps
    every bit, signed zeros too."""
    re, im = (number_array(doc[stem + part], stem + part) for part in ("_re", "_im"))
    if re.ndim != 1 or re.shape != im.shape:
        raise InvalidInputError(f"{stem}_re and {stem}_im must be flat lists of equal length")
    return np.stack([re, im], axis=-1).view(complex).ravel()


def approximant_from_dict(doc):
    """The approximant that ``approximant_to_dict`` wrote as ``doc``, every
    value with its bits.  The values go through ``linalg.number_array``:
    the support nodes in the form's ``check_nodes``, each coefficient part
    in ``_vector``; strings, objects and integers beyond float range raise
    InvalidInputError, as a missing key or an unknown kind does."""
    if not isinstance(doc, dict):
        raise InvalidInputError("an approximant document must be a JSON object")
    cls = KINDS.get(str(doc.get("kind")))
    if cls is None:
        raise InvalidInputError(f"unknown approximant kind {doc.get('kind')!r}")
    try:
        support = doc["support"]  # the form's check_nodes converts it
        coeffs = {name: _vector(doc, KEY_STEMS[name]) for name in cls.COEFFICIENTS}
    except KeyError as exc:
        raise InvalidInputError(f"approximant document lacks key {exc}") from None
    return cls(support=support, **coeffs)


def _atomic_write(path, text):
    """Write ``text`` to ``path`` through a new file in the same directory
    and ``os.replace``; the file is created with mode 0o666 less the umask,
    as ``open(path, "w")`` would create it."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".tmp-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _column_text(column):
    """``repr(float(v))`` of each value of a float64 column, formatted once
    per distinct bit pattern: bits, not values, so that 0.0 and -0.0 keep
    their own text (every NaN prints ``nan``)."""
    patterns, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, patterns.view(float).tolist())), dtype=object)
    return text[inverse].tolist()


def write_csv(path, header, columns):
    """Write a header line and one row per index of the columns, each value
    as ``repr(float(v))``. A column's values are formatted through a table of
    its distinct bit patterns, built for this call only, so a column of a few
    repeated values costs a few ``repr`` calls. Raises ``ValueError`` if the
    columns are not flat, differ in length, or are not as many as the
    header's names, if a name holds a comma, a quote or a line break, or if
    a column is not real numbers (``InvalidInputError``)."""
    columns = [number_array(c, "CSV columns") for c in columns]
    if len(header) != len(columns):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    for name in header:
        if set(name) & set(',"\r\n'):
            raise ValueError(f"header name {name!r} holds a comma, a quote or a line break")
    if len({c.shape for c in columns}) > 1 or any(c.ndim != 1 for c in columns):
        raise ValueError("columns must be flat and of equal length")
    cells = [_column_text(c) for c in columns]
    _atomic_write(path, "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


def make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot use {path} as output directory: {exc}") from None


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
    """n equispaced nodes on [a, b].  An interval whose grid has adjacent
    nodes without a finite reciprocal difference, as a subnormal step gives,
    is rejected here by name; the fit's ``check_differences`` would name two
    grid nodes that the user never wrote."""
    if np.isfinite(b - a) and a < b and n >= 2:
        grid = np.linspace(a, b, n)
        with np.errstate(divide="ignore", over="ignore"):
            if np.isfinite(1.0 / np.diff(grid)).all():
                return grid
    raise InvalidInputError(f"degenerate interval [{a}, {b}] with {n} nodes")


def _fit_metrics(approx, grid):
    return {
        "max_error": max_error(approx, grid),
        "unitarity_deviation": unitarity_deviation(approx, grid),
        "pole_scan": dataclasses.asdict(real_axis_pole_scan(approx, grid)),
        "structure_residual": structure_residual(approx),
    }


def cmd_fit(args):
    if args.nodes is not None:
        grid = load_nodes(args.nodes)
    else:
        grid = interval_grid(args.interval[0], args.interval[1], args.n_test)

    config = AaaConfig(
        m_max=args.m_max, tol=args.tol, variant=args.variant, n_lawson=args.lawson
    )
    make_out_dir(args.out)
    approx, trace = aaa_fit(grid, config)
    write_json(os.path.join(args.out, "approximant.json"), approximant_to_dict(approx))

    # one row per FitStep; the Lawson steps continue the greedy iterations' m
    steps = trace.iterations + (trace.lawson.steps if trace.lawson else [])
    rows = [(m, st.node, st.max_error, st.sigma_min, float(st.degenerate))
            for m, st in enumerate(steps, 1)]
    write_csv(os.path.join(args.out, "trace.csv"),
              ["m", "node", "max_error", "sigma_min", "degenerate"], list(zip(*rows)))

    metrics = _fit_metrics(approx, grid)
    metrics["converged"] = trace.stop_reason == "tol"
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
        "pade_degree": PADE_DEGREE,
        "aaa_support_nodes": FIGURE_FITS["aaa_mod"].m_max,
        "lawson_support_nodes": FIGURE_FITS["lawson_mod"].m_max,
        "seeds": None,
    }


def cmd_figure(args):
    """Figure 1: |r - e^{ix}| on the fit grid for the Padé comparator and
    ``FIGURE_FITS["lawson_mod"]``, of type (m - 1, m - 1) on m support nodes.
    Figure 2: ||r| - 1| on the evaluation grid for each of ``FIGURE_FITS``."""
    make_out_dir(args.out)
    fit_grid = interval_grid(*FIT_INTERVAL, FIT_NODES)
    if args.which == 1:
        grid, target = fit_grid, np.exp(1j * fit_grid)
        lawson = FIGURE_FITS["lawson_mod"]
        curves = {f"abserr_pade{PADE_DEGREE}": PadeApproximant(degree=PADE_DEGREE),
                  "abserr_aaalawson_{0}_{0}".format(lawson.m_max - 1):
                      aaa_fit(fit_grid, lawson)[0]}

        def metric(values):
            return np.abs(values - target)
    else:
        grid = interval_grid(*EVAL_INTERVAL, EVAL_NODES)
        curves = {"unitdev_" + name: aaa_fit(fit_grid, config)[0]
                  for name, config in FIGURE_FITS.items()}

        def metric(values):
            return np.abs(np.abs(values) - 1.0)
    stem = os.path.join(args.out, f"figure{args.which}")
    write_csv(stem + ".csv", ["x", *curves],
              [grid, *(metric(approx.eval(grid)) for approx in curves.values())])
    write_json(stem + "_metadata.json", _figure_metadata())
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
                     metavar=("A", "B"),
                     help="fit interval [A, B]; write a negative bound in exponent form "
                          "with a leading space, as ' -1e1', or argparse may read it as an option")
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
