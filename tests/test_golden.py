"""tools/golden.py: comparing two captures of the CLI's golden outputs."""

import cmath
import importlib.util
import json
import os
import shutil
import subprocess

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden", os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def write_capture(root, csv_text="x,y\n1.0,2.0\n3.0,nan\n", meta=None):
    """A small capture: one run directory with a CSV and a JSON file."""
    run = root / "fit-run"
    run.mkdir(parents=True)
    (run / "trace.csv").write_text(csv_text)
    doc = {"max_error": 1e-12, "stop_reason": "tol", "pole_scan": {"min": [0.5, float("nan")]}}
    doc.update(meta or {})
    (run / "metrics.json").write_text(json.dumps(doc))
    return root


def compare(capsys, old, new):
    rc = golden.main(["--compare", str(old), str(new)])
    return rc, capsys.readouterr().out.splitlines()


def test_identical_trees_exit_0(tmp_path, capsys):
    # the captures hold NaN in a CSV column and in a JSON list
    rc, lines = compare(capsys, write_capture(tmp_path / "a"), write_capture(tmp_path / "b"))
    assert rc == 0
    assert lines == ["fit-run/metrics.json: identical", "fit-run/trace.csv: identical"]


def test_changed_csv_column_reports_largest_difference(tmp_path, capsys):
    new = write_capture(tmp_path / "b", csv_text="x,y\n1.5,2.0\n3.25,nan\n")
    rc, lines = compare(capsys, write_capture(tmp_path / "a"), new)
    assert rc == 1
    assert "fit-run/trace.csv: x 0.5" in lines


def test_nan_against_number_differs(tmp_path, capsys):
    new = write_capture(tmp_path / "b", csv_text="x,y\n1.0,2.0\n3.0,4.0\n")
    rc, lines = compare(capsys, write_capture(tmp_path / "a"), new)
    assert rc == 1
    assert "fit-run/trace.csv: y inf" in lines


def test_equal_values_in_other_text_differ(tmp_path, capsys):
    # -0.0 == 0.0 as floats, so only the text tells the captures apart
    old = write_capture(tmp_path / "a", csv_text="x,y\n-0.0,2.0\n")
    new = write_capture(tmp_path / "b", csv_text="x,y\n0.0,2.0\n")
    rc, lines = compare(capsys, old, new)
    assert rc == 1
    assert lines == ["fit-run/metrics.json: identical", "fit-run/trace.csv: text differs"]


def test_row_of_another_length_differs(tmp_path, capsys):
    new = write_capture(tmp_path / "b", csv_text="x,y\n1.0\n")
    rc, lines = compare(capsys, write_capture(tmp_path / "a", csv_text="x,y\n1.0,2.0\n"), new)
    assert rc == 1
    assert lines[1] == "fit-run/trace.csv: y differs, rows of another length only in NEW"


def write_approximant(root, kind, g):
    """A capture holding one approximant.json whose [alpha; beta] is g."""
    run = root / "fit-run"
    run.mkdir(parents=True)
    half = len(g) // 2
    doc = {"kind": kind, "support": list(range(half)),
           "alpha_re": [v.real for v in g[:half]], "alpha_im": [v.imag for v in g[:half]],
           "beta_re": [v.real for v in g[half:]], "beta_im": [v.imag for v in g[half:]]}
    (run / "approximant.json").write_text(json.dumps(doc))
    return root


def test_phase_rotated_coefficients_align(tmp_path, capsys):
    g = [0.38 + 0.1j, -0.2 + 0.3j, 0.38 - 0.1j, 0.05 - 0.2j]
    turned = [v * cmath.exp(0.62j) for v in g]
    turned[0] += 1e-9
    rc, lines = compare(capsys, write_approximant(tmp_path / "a", "noninterpolatory", g),
                        write_approximant(tmp_path / "b", "noninterpolatory", turned))
    assert rc == 1
    reported = dict(item.rsplit(" ", 1) for item in lines[0].split(": ", 1)[1].split(", "))
    assert set(reported) == {"alpha_re", "alpha_im", "beta_re", "beta_im",
                             "alpha/beta phase-aligned"}
    assert float(reported["alpha_re"]) > 0.1
    assert 1e-10 < float(reported["alpha/beta phase-aligned"]) < 1e-9


def test_phase_alignment_only_for_noninterpolatory(tmp_path, capsys):
    g = [0.38 + 0.1j, 0.38 - 0.1j]
    turned = [v * 1j for v in g]
    rc, lines = compare(capsys, write_approximant(tmp_path / "a", "cayley", g),
                        write_approximant(tmp_path / "b", "cayley", turned))
    assert rc == 1
    assert "phase-aligned" not in lines[0]


def test_missing_file_reported(tmp_path, capsys):
    new = write_capture(tmp_path / "b")
    os.remove(new / "fit-run" / "trace.csv")
    rc, lines = compare(capsys, write_capture(tmp_path / "a"), new)
    assert rc == 1
    assert lines[1].startswith("fit-run/trace.csv: missing in ")
    assert lines[1].endswith(str(new / "fit-run" / "trace.csv"))


def test_changed_non_numeric_json_value_differs(tmp_path, capsys):
    new = write_capture(tmp_path / "b", meta={"stop_reason": "m_max", "max_error": 2e-12})
    rc, lines = compare(capsys, write_capture(tmp_path / "a"), new)
    assert rc == 1
    assert lines[0] == "fit-run/metrics.json: max_error 1e-12, stop_reason differs"


def test_key_on_one_side_named(tmp_path, capsys):
    old = write_capture(tmp_path / "a", meta={"cayley_residual": 0.9})
    new = write_capture(tmp_path / "b", meta={"structure_residual": 4e-7})
    rc, lines = compare(capsys, old, new)
    assert rc == 1
    assert lines[0] == ("fit-run/metrics.json: cayley_residual only in OLD, "
                        "structure_residual only in NEW")


def test_usage_exit_2(capsys):
    assert golden.main(["--compare", "only-one"]) == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("git") is None or shutil.which("tar") is None,
                    reason="needs git and tar")
def test_against_revision(tmp_path, monkeypatch, capsys):
    # a repository whose "CLI" writes one JSON value: the committed tree
    # writes 1, the working tree 2
    cli = tmp_path / "repo" / "src" / "unirat" / "cli.py"
    cli.parent.mkdir(parents=True)
    source = ("import json, os, sys\n"
              "out = sys.argv[sys.argv.index('--out') + 1]\n"
              "os.makedirs(out)\n"
              "with open(os.path.join(out, 'v.json'), 'w') as fh:\n"
              "    json.dump({{'v': {}}}, fh)\n")
    cli.write_text(source.format(1))
    git = ["git", "-C", str(tmp_path / "repo"), "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "v1"]):
        subprocess.run(git + args, check=True)
    monkeypatch.setattr(golden, "ROOT", str(tmp_path / "repo"))
    monkeypatch.setattr(golden, "SRC", str(tmp_path / "repo" / "src"))
    monkeypatch.setattr(golden, "RUNS", {"run": ["fit"]})

    assert golden.main(["--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == ["run/v.json: identical"]
    cli.write_text(source.format(2))
    assert golden.main(["--against", "HEAD"]) == 1
    assert capsys.readouterr().out.splitlines() == ["run/v.json: v 1"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_unknown_revision_exit_2(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.setattr(golden, "ROOT", str(tmp_path))
    assert golden.main(["--against", "no-such-revision"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no-such-revision" in err  # git's own message
