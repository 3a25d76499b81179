"""tools/fittime.py: the four figure fits, or the small-systems operations,
of two trees, timed in one process."""

import shutil
import subprocess

import pytest

from conftest import load_script
from unirat.cli import FIGURE_FITS

fittime = load_script("tools", "fittime.py")

needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@needs_git
def test_unknown_revision_exit_2(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.setattr(fittime, "ROOT", str(tmp_path))
    assert fittime.main(["--against", "no-such-revision"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no-such-revision" in err  # git's own message


HEADER = ["fit", "HEAD", "ms", "iqr", "tree", "ms", "iqr", "change", "wins"]


def check_one_round_rows(rows):
    # each tree's median and, over one round, an interquartile range of 0
    for row in rows:
        old, old_iqr, new, new_iqr = map(float, row.split()[1:5])
        assert old > 0 and new > 0
        assert old_iqr == new_iqr == 0.0
        assert row.split()[-1] in ("0/1", "1/1")


@needs_git
def test_one_round(capsys):
    assert fittime.main(["--against", "HEAD", "--rounds", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == HEADER
    assert [row.split()[0] for row in rows] == [*FIGURE_FITS, "pass"]
    check_one_round_rows(rows)


@needs_git
def test_one_round_small(capsys):
    assert fittime.main(["--against", "HEAD", "--rounds", "1", "--fits", "small"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == HEADER
    assert [row.split()[0] for row in rows] == ["system", "fit.modified", "fit.original",
                                                "pass"]
    check_one_round_rows(rows)


def test_report_iqr():
    # the quartiles of 1..5 ms are 2 and 4; the working tree's rounds are
    # each a millisecond faster, so it wins all five
    times = {"system": ([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0])}
    header, row, passes = fittime.report(times, "HEAD")
    assert header.split() == HEADER
    for line in (row, passes):
        assert line.split()[1:] == ["3.00", "2.00", "2.00", "2.00", "-33.3%", "5/5"]


def test_system_row_matches_workload():
    # the working tree's system row makes the workload's system operations'
    # outputs, bit for bit
    workloads = load_script("bench", "workloads.py")
    systems = workloads.SmallSystems().setup(1, None)["systems"]
    package = fittime.load(fittime.SRC, "unirat_tree")
    got = fittime.small_fits(package, [], fittime.small_systems(1))["system"]()
    expected = [workloads.SmallSystems._system(*s)() for s in systems]
    assert len(got) == len(expected) == workloads.SYSTEMS_PER_CYCLE
    assert [workloads.digest(out) for out in got] == [workloads.digest(out) for out in expected]


def test_small_schedule_matches_workload():
    # the 16 node sets of the small-systems workload at seed 1, each with
    # its m_max, as the benchmark draws them
    workloads = load_script("bench", "workloads.py")
    expected = workloads.SmallSystems().setup(1, None)["fits"]
    schedule = fittime.small_schedule()
    assert len(schedule) == workloads.FIT_CONFIGS_PER_CYCLE == 16
    for (nodes, m_max), (x, m) in zip(schedule, expected):
        assert m_max == m and nodes.tobytes() == x.tobytes()


@pytest.mark.parametrize("seed", [2, 6])
def test_small_schedule_at_seed(seed):
    # of seeds 1-10, the kernel runs at 1 and 6 only, so one seed does not
    # show the schedule's cost
    workloads = load_script("bench", "workloads.py")
    expected = workloads.SmallSystems().setup(seed, None)["fits"]
    schedule = fittime.small_schedule(seed)
    assert len(schedule) == len(expected) == 16
    for (nodes, m_max), (x, m) in zip(schedule, expected):
        assert m_max == m and nodes.tobytes() == x.tobytes()


@needs_git
def test_seed_option_selects_schedule(monkeypatch, capsys):
    seeds = []

    def schedule(seed=1, draw=fittime.small_schedule):
        seeds.append(seed)
        return draw(seed)[:1]
    monkeypatch.setattr(fittime, "small_schedule", schedule)
    for argv in ([], ["--seed", "6"]):
        assert fittime.main(["--rounds", "1", "--fits", "small", *argv]) == 0
    assert seeds == [1, 6]


def test_rounds_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        fittime.main(["--rounds", "0"])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err
