"""Time one workload of the benchmark, its operations in the working tree
against those in a git revision, in one process.

Usage::

    python3 tools/fittime.py [--against REV] [--rounds N] [--seed S]
                             [--workload figure-fits|small-systems|evaluate]

It loads the working tree's ``src/unirat`` and REV's (default ``HEAD``,
taken through ``git archive`` as ``tools/golden.py --against`` takes it)
under two package names, which works because the package imports its own
modules only relatively.  For each tree it runs the working tree's
``bench/workloads.py`` with ``unirat`` standing for that tree's package, and
takes one cycle of the workload's operations (default ``figure-fits``) from
its ``setup`` at seed S (default 1; the benchmark runs seeds 1-10) and its
``ops``, so the tool restates no schedule and no operation.  Each tree runs
each operation once, untimed, and checks its output with the operation's
own check, then the cycle with the workload's, as the benchmark does; if
one fails or raises, it names the tree and the kind, prints no times and
exits 1.  Then each of N rounds (default 30) runs the kinds in turn, each
once for each tree, REV's first in even rounds and the working tree's first
in odd ones; a kind's row times the kind's operations of the cycle
together, in cycle order.  It prints, for each kind, the median wall
milliseconds of each tree with its interquartile range over the rounds, the
change of the medians, and in how many rounds the working tree was the
faster.  Below the kinds, ``geomean`` is each round's geometric mean over
kinds of the kind's mean time per operation, and ``pass`` the round's sum:
the in-process counterparts of the benchmark's ``op_geomean_ms`` and
``pass_s``.  Both trees run on the same host at the same time, so a drift of
the host's speed reaches both alike, which separate processes do not promise.

If git cannot archive REV, it prints git's message and exits 2.
"""

import argparse
import importlib
import importlib.util
import math
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = "unirat"
#: The benchmark's workload definitions, whose operations the tool times.
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")

# tools/golden.py, whose ``extract`` takes REV's ``src`` tree out of git
_spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def load(src, name):
    """The package in ``src``, imported afresh as ``name``, with its ``cli``."""
    for key in [key for key in sys.modules if key.startswith(name + ".")]:
        del sys.modules[key]  # else the new package would reuse an earlier load's modules
    path = os.path.join(src, PACKAGE)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def workloads(package):
    """``bench/workloads.py``, run with ``unirat``, ``unirat.cli`` and
    ``unirat.linalg`` in ``sys.modules`` standing for ``package`` and its
    modules; the entries they replace come back afterwards."""
    standins = {PACKAGE: package, f"{PACKAGE}.cli": package.cli,
                f"{PACKAGE}.linalg": package.linalg}
    saved = {name: sys.modules[name] for name in standins if name in sys.modules}
    sys.modules.update(standins)
    try:
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        for name in standins:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def cycle(module, name, seed, workdir):
    """The workload ``name`` of one tree's ``workloads`` module, and its ops
    of one cycle, set up at ``seed``."""
    workload = module.WORKLOADS[name]()
    return workload, workload.ops(workload.setup(seed, workdir))


def warm_up(workload, ops):
    """Run each distinct op of the cycle once and check its output, then the
    cycle: the first failure's message, or None."""
    achieved = {}
    for op in {id(op): op for op in ops}.values():
        try:
            achieved.update(op.check(op.run()))
        except Exception as exc:  # a crash fails the op as a failed check does
            return f"{op.kind}: {type(exc).__name__}: {exc}"
    failures = workload.cycle_check(achieved)
    return f"cycle check: {failures[0]}" if failures else None


def time_rounds(old, new, rounds):
    """{kind: ([old ms], [new ms])}, one entry per round; ``old`` and ``new``
    map the same kinds to lists of calls, which a round times together."""
    times = {kind: ([], []) for kind in old}
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for kind, runs in times.items():
            for side in order:
                calls = (old, new)[side][kind]
                start = time.perf_counter()
                for call in calls:
                    call()
                runs[side].append(1e3 * (time.perf_counter() - start))
    return times


def iqr(ms):
    """The interquartile range of one tree's round times."""
    if len(ms) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return q3 - q1


def report(times, counts, rev):
    """Lines of a table of the median ms and interquartile range per tree of
    each kind, the geomean and the pass, the change of the medians and the
    working tree's wins; ``counts`` holds each kind's ops per cycle."""
    rounds = [list(zip(*(runs[side] for runs in times.values()))) for side in (0, 1)]
    geomean = tuple([math.exp(statistics.fmean(math.log(ms / counts[kind])
                                                for kind, ms in zip(times, round_ms)))
                     for round_ms in side] for side in rounds)
    passes = tuple([sum(round_ms) for round_ms in side] for side in rounds)
    rows = {**times, "geomean": geomean, "pass": passes}
    width = max(map(len, ["kind", *rows]))
    lines = [f"{'kind':<{width}} {rev + ' ms':>12} {'iqr':>7} {'tree ms':>9} {'iqr':>7} "
             f"{'change':>8} {'wins':>7}"]
    for name, (old, new) in rows.items():
        a, b = statistics.median(old), statistics.median(new)
        wins = sum(n < o for o, n in zip(old, new))
        lines.append(f"{name:<{width}} {a:>12.2f} {iqr(old):>7.2f} {b:>9.2f} {iqr(new):>7.2f} "
                     f"{(b - a) / a:>+8.1%} {wins:>3}/{len(old)}")
    return lines


def positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def main(argv):
    tree = workloads(load(SRC, f"{PACKAGE}_tree"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default="HEAD", metavar="REV")
    parser.add_argument("--rounds", type=positive, default=30, metavar="N")
    parser.add_argument("--workload", choices=tree.WORKLOADS, default="figure-fits")
    parser.add_argument("--seed", type=int, default=1, metavar="S",
                        help="the seed of the workload's set-up")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_src = golden.extract(args.against, tmp)
        except golden.RevisionError as err:
            print(err, file=sys.stderr)
            return 2
        trees = [(args.against, workloads(load(old_src, f"{PACKAGE}_against"))), ("tree", tree)]
        rows = []
        for label, module in trees:
            workdir = tempfile.mkdtemp(dir=tmp)  # evaluate writes its files here
            workload, ops = cycle(module, args.workload, args.seed, workdir)
            failure = warm_up(workload, ops)
            if failure:
                print(f"{label}: {failure}", file=sys.stderr)
                return 1
            rows.append({kind: [op.run for op in ops if op.kind == kind]
                         for kind in workload.kinds})
        times = time_rounds(*rows, args.rounds)
    counts = {kind: len(calls) for kind, calls in rows[1].items()}
    print("\n".join(report(times, counts, args.against)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
