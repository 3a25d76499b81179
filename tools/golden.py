"""Capture the CLI's golden outputs, and compare two captures.

Usage::

    python3 tools/golden.py OUTDIR
    python3 tools/golden.py --compare OLD NEW
    python3 tools/golden.py --against REV

The first form runs, from the ``src`` tree next to this script, the six
``unirat fit`` runs (both variants with ``--lawson 0`` and ``--lawson 5`` at
``--tol 1e-12``, and both variants with ``--m-max 40 --tol 0``) and
``unirat figure 1`` and ``2``, each into its own subdirectory of OUTDIR,
and writes ``blas.json`` beside them: the name, version and thread count of
NumPy's BLAS, read as ``bench/machine.py`` reads them.  Run it once in each
checkout.

The second form prints, for each file of the two captures, ``identical``
or the largest absolute difference per CSV column or per numeric JSON key
(a list counts as one key); a key whose non-numeric value changed reads
``differs``, and a key that one capture lacks reads ``only in OLD`` or
``only in NEW``; a CSV whose rows are not all as long as its header reads
``rows of another length``.  A file whose values are all equal but whose
bytes are not (``-0.0`` against ``0.0``, say) reads ``text differs``.  For a
``noninterpolatory`` ``approximant.json`` whose coefficients differ, the
line also gives ``alpha/beta phase-aligned`` and the largest difference
once the new ``g = [alpha; beta]`` is turned by ``exp(-i theta)``,
``theta = arg <g_old, g_new>``: the fit's phase rule picks the largest
``|g_j|``, so a tie turns the whole vector on a rounding change.  Where both
captures hold a ``blas.json`` and the two differ, it prints both records
after the files' lines; a capture without one compares as the files alone.
It exits 1 if any output file differs, whatever the BLAS records say.

The third form captures the ``src`` tree of the git revision REV (through
``git archive``) and the working tree's into temporary directories, and
compares the two captures as the second form does.  If git cannot archive
REV, it prints git's message and exits 2, as a usage error does.
"""

import csv
import filecmp
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MACHINE = os.path.join(ROOT, "bench", "machine.py")
#: The BLAS record of a capture, beside its run directories.
BLAS = "blas.json"

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


def blas_record():
    """The name, version and thread count of the BLAS that this process's
    NumPy loaded, which the runs, started with this environment, load too."""
    spec = importlib.util.spec_from_file_location("bench_machine", MACHINE)
    machine = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(machine)
    described = machine.describe()
    return {**described["blas"], "threads": described["blas_threads"]}


def _blas(root):
    """The capture's BLAS record, or None where it holds none."""
    path = os.path.join(root, BLAS)
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def capture(outdir, src=None):
    """Run RUNS from ``src`` (default: the tree next to this script), and
    write the BLAS record beside them."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, BLAS), "w") as fh:
        json.dump(blas_record(), fh)
    env = dict(os.environ, PYTHONPATH=src or SRC)
    for name, args in RUNS.items():
        out = os.path.join(outdir, name)
        subprocess.run([sys.executable, "-m", "unirat.cli", *args, "--out", out],
                       env=env, check=True)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaves(doc, key=""):
    """{dotted key: value} over the nested dicts of a JSON document."""
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            out.update(_leaves(v, f"{key}.{k}" if key else k))
        return out
    return {key: doc}


def _read(path):
    """{key: value} of a golden file: a CSV's columns as float lists, a JSON
    document's leaves.  A CSV row shorter than its header gives None for its
    missing cells, and the line numbers of the rows whose length differs from
    the header's go under the key ``rows of another length``."""
    with open(path, newline="") as fh:
        if path.endswith(".csv"):
            header, *rows = csv.reader(fh)
            doc = {name: [float(r[i]) if i < len(r) else None for r in rows]
                   for i, name in enumerate(header)}
            ragged = [line for line, r in enumerate(rows, 2) if len(r) != len(header)]
            if ragged:
                doc["rows of another length"] = ragged
            return doc
        return _leaves(json.load(fh))


def _difference(a, b):
    """0.0 for equal values, the largest absolute difference of two numbers or
    equal-length number lists, and None where no number measures it."""
    if a == b:
        return 0.0
    a, b = (v if isinstance(v, list) else [v] for v in (a, b))
    if len(a) != len(b) or not all(map(_is_number, a + b)):
        return None
    diffs = [abs(x - y) for x, y in zip(a, b) if x != y and not (x != x and y != y)]
    return max((d if not math.isnan(d) else math.inf for d in diffs), default=0.0)


def _phase_aligned(a, b):
    """The largest difference of the real and imaginary parts of two
    noninterpolatory documents' ``g = [alpha; beta]`` once the new one is
    turned by ``exp(-i theta)``, ``theta = arg <g_old, g_new>``; None for
    any other pair."""
    if not a.get("kind") == b.get("kind") == "noninterpolatory":
        return None
    g_old, g_new = ([complex(re, im) for re, im in zip(doc["alpha_re"] + doc["beta_re"],
                                                       doc["alpha_im"] + doc["beta_im"])]
                    for doc in (a, b))
    if len(g_old) != len(g_new):
        return None
    inner = sum(x.conjugate() * y for x, y in zip(g_old, g_new))
    turn = inner.conjugate() / abs(inner) if inner else 1.0
    diffs = (x - y * turn for x, y in zip(g_old, g_new))
    return max((max(abs(d.real), abs(d.imag)) for d in diffs), default=0.0)


def compare(old, new):
    """Print one line per golden file, then the BLAS records where they
    differ; return whether all files are identical."""
    names = set()
    for root in (old, new):
        for top, _, files in os.walk(root):
            names.update(os.path.relpath(os.path.join(top, f), root) for f in files)
    names.discard(BLAS)
    same = True
    for name in sorted(names):
        paths = [os.path.join(root, name) for root in (old, new)]
        missing = [p for p in paths if not os.path.isfile(p)]
        if missing:
            print(f"{name}: missing in {', '.join(missing)}")
            same = False
            continue
        a, b = map(_read, paths)
        report = []
        for key in list(a) + [k for k in b if k not in a]:
            if (key in a) != (key in b):
                report.append(f"{key} only in {'OLD' if key in a else 'NEW'}")
                continue
            d = _difference(a[key], b[key])
            if d != 0.0:
                report.append(f"{key} {'differs' if d is None else f'{d:.3g}'}")
        aligned = _phase_aligned(a, b)
        if aligned is not None and any(k.startswith(("alpha_", "beta_")) for k in report):
            report.append(f"alpha/beta phase-aligned {aligned:.3g}")
        if not report and not filecmp.cmp(*paths, shallow=False):
            report.append("text differs")
        print(f"{name}: {', '.join(report) or 'identical'}")
        same = same and not report
    records = [_blas(root) for root in (old, new)]
    if None not in records and records[0] != records[1]:
        for label, record in zip(("OLD", "NEW"), records):
            print(f"BLAS of {label}: {json.dumps(record, sort_keys=True)}")
    return same


class RevisionError(Exception):
    """git could not archive the revision; the message is git's."""


def against(rev):
    """Capture REV's ``src`` tree and the working tree's; return whether the
    captures are identical."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if archive.returncode:
            raise RevisionError(archive.stderr.decode().strip())
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        old, new = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        capture(old, os.path.join(tmp, "src"))
        capture(new)
        return compare(old, new)


def main(argv):
    if len(argv) == 1 and not argv[0].startswith("-"):
        capture(argv[0])
        return 0
    if len(argv) == 3 and argv[0] == "--compare":
        return 0 if compare(argv[1], argv[2]) else 1
    if len(argv) == 2 and argv[0] == "--against":
        try:
            return 0 if against(argv[1]) else 1
        except RevisionError as err:
            print(err, file=sys.stderr)
            return 2
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: python3 tools/golden.py OUTDIR\n"
          "       python3 tools/golden.py --compare OLD NEW\n"
          "       python3 tools/golden.py --against REV", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
