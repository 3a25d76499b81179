"""Capture the CLI's golden outputs, for comparing two versions bit for bit.

Usage::

    python3 tools/golden.py OUTDIR

runs, from the ``src`` tree next to this script, the six ``unirat fit`` runs
(both variants with ``--lawson 0`` and ``--lawson 5`` at ``--tol 1e-12``, and
both variants with ``--m-max 40 --tol 0``) and ``unirat figure 1`` and ``2``,
each into its own subdirectory of OUTDIR.  Run it once in each checkout and
compare the two directories with ``diff -r``.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

RUNS = {
    **{f"fit-{variant}-lawson{steps}": ["fit", "--variant", variant,
                                        "--lawson", str(steps), "--tol", "1e-12"]
       for variant in ("modified", "original") for steps in (0, 5)},
    **{f"fit-{variant}-mmax40-tol0": ["fit", "--variant", variant,
                                      "--m-max", "40", "--tol", "0"]
       for variant in ("modified", "original")},
    "figure1": ["figure", "1"],
    "figure2": ["figure", "2"],
}


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/golden.py OUTDIR", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, args in RUNS.items():
        out = os.path.join(argv[0], name)
        subprocess.run([sys.executable, "-m", "unirat.cli", *args, "--out", out],
                       env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
