"""unirat benchmark: closed loop, one client, seeded inputs, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload figure-fits --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each operation starts when the previous one ends.  After an untimed warm-up,
the run repeats whole cycles of a workload's operations until ``--seconds`` of
operation time have passed (at least one cycle) and checks every output.
``--trace 0`` reports, with nothing wrapped, in reference seconds (wall
seconds scaled by an interleaved calibration loop, see CALIBRATION_REF_S):

* ``setup_s``: a fresh interpreter importing unirat (median of 5) plus the
  workload's input generation and pre-fits (median of 3);
* ``pass_s``: median time of one cycle;
* ``op_geomean_ms``: geometric mean over the workload's operation kinds of
  each kind's median time, so short kinds weigh as much as long ones;
* ``peak_rss_mb``: peak resident set of this process (one workload per
  process).

The same figures in raw wall seconds are in the report.

``--trace 1`` runs one cycle unwrapped and the same cycle with every public
unirat function wrapped (see ``tracing.py``), in raw seconds, and reports
per-layer self times and counts, the tracing overhead, and three
self-checks: wrapped outputs are bit-identical to unwrapped ones, layer self
times sum to within 10% of the traced wall time, and the deterministic counts
equal those of every earlier traced run of the same code, whatever its seed
(kept under ``.bench_build/``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, then a ``report`` JSON line with the
machine, the seed, the per-kind timings, the ROADMAP baseline and the
achieved errors.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
STATE = BUILD / "unirat-counts"
SPANS = BUILD / "unirat-spans"
WORKLOADS = ("figure-fits", "small-systems", "evaluate")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
#: Host speed on a shared machine drifts by tens of percent within minutes.
#: ``machine.calibrate`` is timed every CALIBRATION_INTERVAL_S of the run, and
#: every reported time t is scaled to a host on which it takes
#: CALIBRATION_REF_S: t * REF / (median of the calibrations taken from
#: CALIBRATION_WINDOW_S before the timed interval to as long after it).  The
#: report keeps the raw seconds too.
CALIBRATION_REF_S = 0.005
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_WINDOW_S = 1.0
#: Layer self times must sum to within this share of the traced wall time.
SELF_TIME_COVERAGE = 0.10
#: Counts that must repeat exactly across runs and seeds of the same code.
#: Jacobi sweep and rotation counts need a stats return from the kernel.
DETERMINISTIC = (".calls", ".elems", ".work", "aaa.iterations", "aaa.degenerate",
                 "lawson.steps")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def summarize(samples):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "sum": math.fsum(ordered)}
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = ordered[math.ceil(p / 100.0 * n) - 1]
            break
    return out


class Tally:
    """Attempted and failed operations, failure messages, achieved errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.achieved = {}
        self.identities = {}

    def fail(self, message):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def check_cycle(self, workload, rows, reference_label="its first run"):
        """Check each op's first output; every later run of the op must
        repeat it bit for bit."""
        cycle = {}
        for op, out, _, error, _ in rows:
            self.attempted += 1
            if error is None:
                try:
                    identity = wl.digest(op.identity(out) if op.identity else out)
                    known = self.identities.get(id(op))
                    if known is None:
                        achieved = op.check(out)
                        self.identities[id(op)] = identity
                    elif known != identity:
                        raise wl.CheckFailed(f"output differs from {reference_label}")
                    else:
                        achieved = {}
                except wl.CheckFailed as exc:
                    error = f"{op.kind}: {exc}"
                except Exception:  # a check that crashes is a failed output
                    error = f"{op.kind}: {traceback.format_exc()}"
            if error is not None:
                self.fail(error)
                continue
            cycle.update(achieved)
            for key, value in achieved.items():
                self.achieved[key] = max(value, self.achieved.get(key, value))
        for message in workload.cycle_check(cycle):
            self.fail(message)


class Calibrator:
    """Times ``machine.calibrate`` every CALIBRATION_INTERVAL_S from a SIGALRM
    handler, so long operations are sampled too.  The handler runs between
    bytecodes of the main thread; ``spent`` is its total time, which
    ``timed`` takes out of the operations it interrupted."""

    def __init__(self):
        self.samples = []  # (time taken, seconds)
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, machine.calibrate()))
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """(fn(), seconds spent in fn outside the calibrations, (start, end))."""
        spent, start = self.spent, time.perf_counter()
        out = fn()
        end = time.perf_counter()
        return out, end - start - (self.spent - spent), (start, end)

    def scale(self, interval):
        """Factor from seconds timed over ``interval`` to reference seconds."""
        start, end = interval
        near = [s for t, s in self.samples
                if start - CALIBRATION_WINDOW_S <= t <= end + CALIBRATION_WINDOW_S]
        return CALIBRATION_REF_S / statistics.median(near or [s for _, s in self.samples])


def _plain(fn):
    start = time.perf_counter()
    out = fn()
    end = time.perf_counter()
    return out, end - start, (start, end)


def run_cycle(ops, tracer=None, timed=_plain):
    """Run ops back to back; rows of (op, output, seconds, error, interval)."""
    rows = []
    for op in ops:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out, seconds, interval = timed(op.run)
            error = None
        except Exception:  # an operation that raises counts as failed
            out, error = None, f"{op.kind}: {traceback.format_exc()}"
            seconds, interval = time.perf_counter() - start, (start, time.perf_counter())
        if tracer is not None:
            tracer.active = False
        rows.append((op, out, seconds, error, interval))
    return rows


def import_unirat():
    """A fresh interpreter starts and imports unirat.  Calibrations wait until
    it has exited: run beside it they would compete for the CPUs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        subprocess.run([sys.executable, "-c", "import unirat"], env=env, cwd=ROOT,
                       check=True)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def _geomean_ms(stats):
    return 1e3 * math.exp(statistics.fmean(math.log(s["median"]) for s in stats.values()))


def measure(workload, seed, seconds, workdir):
    """Untraced run: end-to-end metrics in reference seconds."""
    tally = Tally()
    with Calibrator() as calibrator:
        imports = [calibrator.timed(import_unirat)[1:] for _ in range(IMPORT_REPEATS)]
        setups, inputs = [], set()
        for _ in range(SETUP_REPEATS):
            state, *timing = calibrator.timed(lambda: workload.setup(seed, workdir))
            setups.append(timing)
            inputs.add(wl.digest(state))
        if len(inputs) != 1:
            tally.fail("set-up is not repeatable: inputs differ between set-ups")

        ops = workload.ops(state)
        run_cycle(workload.warmup(ops))  # lazy set-up and caches, untimed
        timings = {kind: [] for kind in workload.kinds}  # (seconds, interval)
        cycles = []
        while sum(c[0] for c in cycles) < seconds or not cycles:
            rows = run_cycle(ops, timed=calibrator.timed)
            cycles.append((sum(r[2] for r in rows), (rows[0][4][0], rows[-1][4][1])))
            for op, _, dt, _, interval in rows:
                timings[op.kind].append((dt, interval))
            tally.check_cycle(workload, rows)
            del rows  # drop this cycle's outputs before the next one allocates its own

    def ref(timed_list):
        return [dt * calibrator.scale(interval) for dt, interval in timed_list]

    raw = {kind: summarize([dt for dt, _ in t]) for kind, t in timings.items()}
    stats = {kind: summarize(ref(t)) for kind, t in timings.items()}
    raw_setup = statistics.median(dt for dt, _ in imports) + statistics.median(
        dt for dt, _ in setups)
    metrics = {
        "setup_s": (statistics.median(ref(imports)) + statistics.median(ref(setups)), "s"),
        "pass_s": (statistics.median(ref(cycles)), "s"),
        "op_geomean_ms": (_geomean_ms(stats), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "calibration_s": summarize([s for _, s in calibrator.samples]),
        "raw": {"setup_s": raw_setup, "pass_s": statistics.median(c[0] for c in cycles),
                "op_geomean_ms": _geomean_ms(raw), "kinds": raw},
        "kinds": stats, "named": workload.named(stats, raw),
    }
    return metrics, tally, report


def code_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "unirat").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload_name, counts, tally):
    """Deterministic counts must equal every earlier traced run of this code."""
    fixed = {k: v for k, v in sorted(counts.items()) if k.endswith(DETERMINISTIC)}
    path = STATE / f"{workload_name}-{code_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != fixed:
            diff = sorted(k for k in set(earlier) | set(fixed)
                          if earlier.get(k) != fixed.get(k))
            tally.fail(f"counts differ from an earlier traced run: {diff}")
        return fixed, "compared with " + path.name
    STATE.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=STATE)
    with os.fdopen(fd, "w") as fh:
        json.dump(fixed, fh, indent=1)
    os.replace(tmp, path)
    return fixed, "recorded as " + path.name


def trace(workload, seed, workdir):
    """One cycle unwrapped, the same cycle wrapped: per-layer metrics."""
    tally = Tally()
    state = workload.setup(seed, workdir)
    ops = workload.ops(state)
    run_cycle(workload.warmup(ops))
    plain = run_cycle(ops)  # traced runs report raw seconds
    untraced_s = sum(r[2] for r in plain)
    tally.check_cycle(workload, plain)
    del plain

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        wrapped = run_cycle(ops, tracer)
    traced_s = sum(r[2] for r in wrapped)
    tally.check_cycle(workload, wrapped, "the unwrapped run")
    del wrapped

    covered = tracer.root_seconds() / traced_s
    if abs(1.0 - covered) > SELF_TIME_COVERAGE:
        tally.fail(f"layer self times cover {covered:.3f} of the traced wall time")
    fixed, counts_status = check_counts(workload.name, tracer.counts, tally)
    metrics = layer_metrics(tracer, traced_s, untraced_s)
    SPANS.mkdir(parents=True, exist_ok=True)
    spans_path = SPANS / f"{workload.name}.json"
    spans_path.write_text(json.dumps({
        "seed": seed, "fields": ["name", "start", "end", "parent"],
        "spans": tracer.spans}))
    report = {"spans": str(spans_path.relative_to(ROOT)),
              "counts": fixed, "counts_check": counts_status,
              "self_time_coverage": covered,
              "pending": "Jacobi sweep and rotation counts need a kernel stats return"}
    return metrics, tally, report


def layer_metrics(tracer, traced_s, untraced_s):
    own = tracer.self_times()
    counts = tracer.counts
    out = {}
    for group in ("linalg.svd_real", "linalg.svd_complex"):
        out[group + ".calls"] = (counts[group + ".calls"], "count")
        out[group + ".self_s"] = (own[group], "s")
        out[group + ".elems"] = (counts[group + ".elems"], "elem")
        out[group + ".work"] = (counts[group + ".work"], "elem.col")
    linalg = own["linalg.svd_real"] + own["linalg.svd_complex"]
    out["linalg.share"] = (linalg / traced_s, "ratio")
    for group in ("loewner.build", "loewner.extract"):
        out[group + ".calls"] = (counts[group + ".calls"], "count")
        out[group + ".self_s"] = (own[group], "s")
    out["aaa.iterations"] = (counts["aaa.iterations"], "count")
    out["aaa.degenerate"] = (counts["aaa.degenerate"], "count")
    out["aaa.self_s"] = (own["aaa"], "s")
    out["lawson.steps"] = (counts["lawson.steps"], "count")
    out["lawson.self_s"] = (own["lawson"], "s")
    out["barycentric.eval.calls"] = (counts["barycentric.eval.calls"], "count")
    out["barycentric.eval.points"] = (counts["barycentric.eval.points"], "count")
    out["barycentric.eval.bytes"] = (counts["barycentric.eval.bytes"], "B")
    out["barycentric.eval.self_s"] = (own["barycentric.eval"], "s")
    out["barycentric.denominator.self_s"] = (own["barycentric.denominator"], "s")
    out["pade.eval.points"] = (counts["pade.eval.points"], "count")
    out["pade.eval.self_s"] = (own["pade.eval"], "s")
    out["pade.denominator.self_s"] = (own["pade.denominator"], "s")
    for name in ("max_error", "unitarity_deviation", "pole_scan"):
        out[f"diagnostics.{name}.self_s"] = (own["diagnostics." + name], "s")
    out["cli.write.calls"] = (counts["cli.write.calls"], "count")
    out["cli.write.bytes"] = (counts["cli.write.bytes"], "B")
    out["cli.write.self_s"] = (own["cli.write"], "s")
    out["trace.wall_s"] = (traced_s, "s")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    out["trace.unattributed"] = (1.0 - tracer.root_seconds() / traced_s, "ratio")
    return out


def workload_why(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def run_one(args):
    workload = wl.WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(prefix="unirat-bench-", dir=BUILD) as workdir:
        if args.trace:
            metrics, tally, report = trace(workload, args.seed, workdir)
        else:
            metrics, tally, report = measure(workload, args.seed, args.seconds, workdir)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    for name, stat in report.get("named", {}).items():
        extra = {k: v for k, v in stat.items() if k not in ("value", "unit")}
        print(f"{args.workload} {name} = {stat['value']!r} {stat['unit']} {extra}")
    report.update({
        "workload": args.workload, "why": workload_why(args.workload), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine.describe(),
        "fail_rate": tally.failed / max(tally.attempted, 1),
        "failures": tally.messages, "achieved": tally.achieved,
    })
    print("report " + json.dumps(report, default=float))
    for message in tally.messages:
        print(message, file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "unirat" / "__init__.py").is_file():
        print(f"error: no unirat sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # BLAS threads are pinned to the CPUs this process may use; the kernel's
    # sweep cap is left at the library default.
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    os.environ.pop("UNIRAT_SWEEP_CAP", None)
    sys.path.insert(0, str(SRC))
    global wl, tracing, machine
    import machine
    import tracing
    import workloads as wl
    import unirat
    if Path(unirat.__file__).resolve().parent != (SRC / "unirat").resolve():
        print(f"error: imported unirat from {unirat.__file__}", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
