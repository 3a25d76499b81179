"""Time the figure fits, or the small-systems fits, of the working tree
against a git revision's, in one process.

Usage::

    python3 tools/fittime.py [--against REV] [--rounds N] [--fits figure|small]
                             [--seed S]

It loads the working tree's ``src/unirat`` and REV's (default ``HEAD``,
taken through ``git archive`` as ``tools/golden.py --against`` takes it)
under two package names, which works because the package imports its own
modules only relatively.  With ``--fits figure`` (the default) each tree
fits each of its own ``cli.FIGURE_FITS`` on its own figure fit grid, one
row per fit.  With ``--fits small`` each tree runs the fit schedule of the
benchmark's small-systems workload: the 16 node sets that
``SmallSystems().setup(S)`` in ``bench/workloads.py`` draws for the seed S
(default 1; the benchmark runs seeds 1-10), each fitted to its ``m_max``
with ``tol=0`` in both variants.  The figure fits draw nothing, and take no
seed.  The workload file is read,
not changed, and its node sets are made once and shared by both trees.  Its
rows, ``fit.modified`` and ``fit.original``, each time the 16 fits of one
variant in turn.  After one untimed warm-up of every row of both trees,
each of N rounds (default 30) runs the rows in turn, each once for each
tree, REV's first in even rounds and the working tree's first in odd ones.
It prints, for each row and for the pass of all of them, the median wall
milliseconds of each tree, the change, and in how many rounds the working
tree was the faster.  Both trees run on the same host at the same time, so
a drift of the host's speed reaches both alike, which separate processes do
not promise.

If git cannot archive REV, it prints git's message and exits 2.
"""

import argparse
import functools
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = "unirat"
#: The benchmark's workload definitions, whose small-systems schedule
#: ``--fits small`` times.
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")

# tools/golden.py, whose ``extract`` takes REV's ``src`` tree out of git
_spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def load(src, name):
    """The ``cli`` module of the package in ``src``, imported as ``name``."""
    path = os.path.join(src, PACKAGE)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def figure_fits(cli):
    """{fit name: a call that runs the fit} of one tree's ``cli``."""
    grid = cli.interval_grid(*cli.FIT_INTERVAL, cli.FIT_NODES)
    return {name: (lambda config=config: cli.aaa_fit(grid, config))
            for name, config in cli.FIGURE_FITS.items()}


def small_schedule(seed=1):
    """[(nodes, m_max)], the 16 fits of ``bench/workloads.py``'s
    small-systems workload at ``seed``.  The workload module imports the
    package as ``unirat``, so the working tree's ``src`` is put on the path
    first if no ``unirat`` is importable."""
    if importlib.util.find_spec(PACKAGE) is None:
        sys.path.insert(0, SRC)
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SmallSystems().setup(seed, None)["fits"]


def small_fits(cli, schedule):
    """{row name: a call that runs the schedule's fits of one variant} of
    one tree's ``cli``."""
    def run(variant):
        for nodes, m_max in schedule:
            cli.aaa_fit(nodes, cli.AaaConfig(m_max=m_max, tol=0.0, variant=variant))
    return {f"fit.{variant}": (lambda variant=variant: run(variant))
            for variant in ("modified", "original")}


def time_rounds(old, new, rounds):
    """{row name: ([old ms], [new ms])}, one entry per round, after one
    warm-up of each row; ``old`` and ``new`` map the same names to calls."""
    for fit in (*old.values(), *new.values()):
        fit()
    times = {name: ([], []) for name in old}
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name, runs in times.items():
            for side in order:
                fit = (old, new)[side][name]
                start = time.perf_counter()
                fit()
                runs[side].append(1e3 * (time.perf_counter() - start))
    return times


def report(times, rev):
    """Lines of a table of each row's and the pass's median ms, their change
    and the working tree's wins."""
    # a round's pass is the sum of its rows, per tree
    passes = tuple([sum(round_ms) for round_ms in zip(*(runs[side] for runs in times.values()))]
                   for side in (0, 1))
    rows = {**times, "pass": passes}
    lines = [f"{'fit':<12} {rev + ' ms':>12} {'tree ms':>9} {'change':>8} {'wins':>7}"]
    for name, (old, new) in rows.items():
        a, b = statistics.median(old), statistics.median(new)
        wins = sum(n < o for o, n in zip(old, new))
        lines.append(f"{name:<12} {a:>12.2f} {b:>9.2f} {(b - a) / a:>+8.1%} {wins:>3}/{len(old)}")
    return lines


def positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--against", default="HEAD", metavar="REV")
    parser.add_argument("--rounds", type=positive, default=30, metavar="N")
    parser.add_argument("--fits", choices=("figure", "small"), default="figure")
    parser.add_argument("--seed", type=int, default=1, metavar="S",
                        help="the small-systems schedule's seed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_src = golden.extract(args.against, tmp)
        except golden.RevisionError as err:
            print(err, file=sys.stderr)
            return 2
        fits = (figure_fits if args.fits == "figure"
                else functools.partial(small_fits, schedule=small_schedule(args.seed)))
        old = fits(load(old_src, f"{PACKAGE}_against"))
        new = fits(load(SRC, f"{PACKAGE}_tree"))
        times = time_rounds(old, new, args.rounds)
    print("\n".join(report(times, args.against)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
