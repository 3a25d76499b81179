"""tools/fittime.py: a benchmark workload's ops in two trees, checked and timed."""

import os
import shutil
import subprocess
import sys

import pytest

import unirat
from conftest import load_script

fittime = load_script("tools", "fittime.py")
workloads = load_script("bench", "workloads.py")

needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@needs_git
def test_unknown_revision_exit_2(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.setattr(fittime.golden, "ROOT", str(tmp_path))
    assert fittime.main(["--against", "no-such-revision"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no-such-revision" in err  # git's own message


HEADER = ["kind", "HEAD", "ms", "iqr", "tree", "ms", "iqr", "change", "wins"]


def revision_from_working_tree(monkeypatch):
    """Have the tool take the revision's ``src`` tree as a copy of the
    working tree's, so that a run needs no git checkout."""
    def extract(rev, dest):
        return shutil.copytree(fittime.SRC, os.path.join(dest, "src"),
                               ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(fittime.golden, "extract", extract)


def edit_workloads(monkeypatch, edit):
    """Have the tool pass each workload file it loads, and its package, to ``edit``."""
    def load(package, load_file=fittime.workloads):
        module = load_file(package)
        edit(module, package)
        return module
    monkeypatch.setattr(fittime, "workloads", load)


def test_one_round(monkeypatch, capsys, name="figure-fits"):
    # --seed reaches both trees' set-up; the rows are the kinds, geomean, pass
    revision_from_working_tree(monkeypatch)
    seeds = []

    def record(module, package):
        setup = module.WORKLOADS[name].setup
        module.WORKLOADS[name].setup = lambda self, seed, workdir: (
            seeds.append(seed) or setup(self, seed, workdir))
    edit_workloads(monkeypatch, record)
    assert fittime.main(["--rounds", "1", "--workload", name, "--seed", "6"]) == 0
    assert seeds == [6, 6]
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == HEADER
    assert [row.split()[0] for row in rows] == [*workloads.WORKLOADS[name].kinds,
                                                "geomean", "pass"]
    for row in rows:  # each tree's median; over one round, an IQR of 0
        old, old_iqr, new, new_iqr = map(float, row.split()[1:5])
        assert old > 0 and new > 0 and old_iqr == new_iqr == 0.0
        assert row.split()[-1] in ("0/1", "1/1")


def test_one_round_small(monkeypatch, capsys):
    test_one_round(monkeypatch, capsys, "small-systems")


def test_one_round_evaluate(monkeypatch, capsys):
    test_one_round(monkeypatch, capsys, "evaluate")


def test_report_iqr():
    # the quartiles of 1..5 ms are 2 and 4, and the tree wins all five rounds;
    # b's 4 ops per cycle each take as long as a's one, so geomean is a's row
    old, new = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 1.5, 2.0, 2.5]
    times = {"a": (old, new), "b": ([4 * ms for ms in old], [4 * ms for ms in new])}
    a = ["3.00", "2.00", "1.50", "1.00", "-50.0%", "5/5"]
    assert [row.split() for row in fittime.report(times, {"a": 1, "b": 4}, "HEAD")] == [
        HEADER, ["a", *a], ["b", "12.00", "8.00", "6.00", "4.00", *a[4:]], ["geomean", *a],
        ["pass", "15.00", "10.00", "7.50", "5.00", *a[4:]]]


@pytest.mark.parametrize("seed", [1, 6])
@pytest.mark.parametrize("name", ["figure-fits", "small-systems"])
def test_ops_match_workload(name, seed):
    # the working tree's ops as the tool builds them give the plain
    # workload file's outputs; loading it left sys.modules as it was
    package = fittime.load(fittime.SRC, "unirat_tree")
    tree = fittime.workloads(package)
    assert tree.unirat is package and tree.cli is package.cli and sys.modules["unirat"] is unirat
    digests = [[(op.kind, workloads.digest(op.run()))
                for op in fittime.cycle(module, name, seed, None)[1]]
               for module in (tree, workloads)]
    assert digests[0] == digests[1]


def test_failed_check_exit_1(monkeypatch, capsys):
    revision_from_working_tree(monkeypatch)

    def plant(module, package):  # the check raises the workload's CheckFailed
        if package.__name__ == "unirat_tree":
            module.SmallSystems._check_system = staticmethod(
                lambda out: module._require(False, "planted"))
    edit_workloads(monkeypatch, plant)
    assert fittime.main(["--rounds", "1", "--workload", "small-systems"]) == 1
    assert capsys.readouterr() == ("", "tree: system: CheckFailed: planted\n")


def test_help_prints_first_paragraph(capsys):
    with pytest.raises(SystemExit, match="^0$"):
        fittime.main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert " ".join(fittime.__doc__.split("\n\n")[0].split()) in out
    assert "--workload {" + ",".join(workloads.WORKLOADS) + "}" in out


def test_rounds_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        fittime.main(["--rounds", "0"])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err
