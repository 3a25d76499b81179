"""Command-line front end: artifacts, exit codes, determinism, round-trips."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import unirat.linalg as linalg
from unirat import (
    AaaConfig,
    BarycentricInterpolant,
    CayleyApproximant,
    NonInterpolatoryApproximant,
    aaa_fit,
)
from unirat.cli import (
    FIGURE_FITS,
    PADE_DEGREE,
    approximant_from_dict,
    approximant_to_dict,
    load_nodes,
    main,
    write_csv,
)
from unirat.errors import InvalidInputError
from unirat.loewner import VARIANTS


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    data = np.asarray(rows)
    return header, {name: data[:, i] for i, name in enumerate(header)}


@pytest.fixture(scope="module")
def figure_fit_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    rc = main(
        [
            "fit",
            "--interval", "-13.9", "13.9",
            "--n-test", "2000",
            "--tol", "1e-12",
            "--variant", "modified",
            "--lawson", "20",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def figure1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    assert main(["figure", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def figure2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    assert main(["figure", "2", "--out", str(out)]) == 0
    return out


class TestFit:
    def test_artifacts_and_metrics(self, figure_fit_dir):
        for name in ("approximant.json", "trace.csv", "metrics.json"):
            assert os.path.exists(figure_fit_dir / name)
        with open(figure_fit_dir / "metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["max_error"] <= 1e-12
        assert metrics["unitarity_deviation"] <= metrics["max_error"]
        assert not metrics["pole_scan"]["flagged"]
        # the greedy phase stops at m_max; the Lawson steps finish the job
        assert metrics["stop_reason"] in ("tol", "m_max")

    def test_trace_rows(self, figure_fit_dir):
        header, cols = read_csv(figure_fit_dir / "trace.csv")
        assert header == ["m", "node", "max_error", "sigma_min", "degenerate"]
        m = cols["m"].astype(int)
        assert m[0] == 1
        # greedy iterations count up, then the Lawson steps continue the index
        assert np.all(np.diff(m) == 1)
        assert cols["max_error"][-1] <= 1e-12

    def test_degenerate_column_reads_the_svds(self, tmp_path, monkeypatch):
        # 9 support nodes resolve exp(ix) on [-3, 3] to roundoff, so from the
        # tenth greedy iteration on, and in every Lawson step, the two
        # smallest singular values both sit at roundoff.  Each step's flag
        # is the one the Jacobi kernel's SVD of the step's system gives: on
        # the tall degenerate step 10, whose record is the kernel's, and on
        # the wide steps 11-14, whose records come from the QR of A^H alone
        loewner = importlib.import_module("unirat.loewner")
        systems = []

        def record(A, *args, solve=loewner.smallest_right_vector):
            systems.append(A.copy())
            return solve(A, *args)
        monkeypatch.setattr(loewner, "smallest_right_vector", record)
        _, trace = aaa_fit(np.linspace(-3, 3, 21), AaaConfig(m_max=11, tol=0.0, n_lawson=3))
        monkeypatch.undo()
        steps = trace.iterations + trace.lawson.steps
        flags = [st.degenerate for st in steps]
        assert flags == [False] * 9 + [True] * 5
        assert flags == [linalg.svd_real(A).smallest().degenerate for A in systems]
        assert [A.shape[0] < A.shape[1] for A in systems] == [False] * 10 + [True] * 4
        assert main(["fit", "--interval", "-3", "3", "--n-test", "21", "--m-max", "11",
                     "--tol", "0", "--lawson", "3", "--out", str(tmp_path)]) == 0
        _, cols = read_csv(tmp_path / "trace.csv")
        assert cols["degenerate"].tolist() == [float(f) for f in flags]
        assert cols["sigma_min"].tolist() == [st.sigma_min for st in steps]
        assert cols["degenerate"][9:].tolist() == [1.0] * 5

    def test_zeroed_weights_pole_exit_1(self, tmp_path, capsys):
        # one test node is left after 2 greedy iterations, so each Lawson
        # step's system is 3 x 4, wide.  Step 10's vector has a pole at a
        # test node: the fit exits 1, and trace.csv holds the 11 steps that
        # ran before it, 2 greedy iterations and 9 Lawson steps, each
        # determined, the rows a fit stopped after step 9 writes
        args = ["fit", "--interval", "-3", "3", "--n-test", "3", "--m-max", "2", "--tol", "0"]
        rc = main(args + ["--lawson", "10", "--out", str(tmp_path / "failed")])
        assert rc == 1
        assert "Lawson step 10" in capsys.readouterr().err
        assert os.listdir(tmp_path / "failed") == ["trace.csv"]
        _, failed = read_csv(tmp_path / "failed" / "trace.csv")
        assert failed["m"].tolist() == list(range(1, 12))
        assert failed["degenerate"].tolist() == [0.0] * 11
        assert main(args + ["--lawson", "9", "--out", str(tmp_path / "nine")]) == 0
        assert ((tmp_path / "failed" / "trace.csv").read_text()
                == (tmp_path / "nine" / "trace.csv").read_text())

    def test_undetermined_lawson_exit_2(self, tmp_path, capsys):
        # 2 test nodes are left after 4 greedy iterations, too few for the
        # Lawson systems to determine their vector
        rc = main(["fit", "--interval", "-3", "3", "--n-test", "6", "--m-max", "4",
                   "--tol", "0", "--lawson", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert "need at least 3 test nodes, got 2" in capsys.readouterr().err

    def test_negative_exponent_bound_as_help_says(self, tmp_path, capsys):
        # Python 3.11's argparse reads -1e1 as an option, since its
        # negative-number pattern has no exponent; an argument that holds a
        # space is always a value
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        assert "' -1e1'" in " ".join(capsys.readouterr().out.split())
        for bound, out in ((" -1e1", tmp_path / "exponent"), ("-10", tmp_path / "plain")):
            assert main(["fit", "--interval", bound, "1e1", "--n-test", "40", "--m-max", "4",
                         "--out", str(out)]) == 0
        assert ((tmp_path / "exponent" / "approximant.json").read_text()
                == (tmp_path / "plain" / "approximant.json").read_text())

    def test_degenerate_interval_exit_2(self, tmp_path, capsys):
        rc = main(["fit", "--interval", "0", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nodes_file_original_variant(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(
            "# grid with comments\n"
            + "\n".join(str(v) for v in np.linspace(-4, 4, 40))
            + "\n  2.05  # trailing comment\n\n"
        )
        assert load_nodes(nodes).size == 41
        out = tmp_path / "run"
        rc = main(
            ["fit", "--nodes", str(nodes), "--m-max", "5", "--tol", "0",
             "--variant", "original", "--out", str(out)]
        )
        assert rc == 0
        with open(out / "approximant.json") as fh:
            doc = json.load(fh)
        assert doc["kind"] == "interpolatory"
        assert len(doc["support"]) == 5

    def test_numerical_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        # no eigensolve either, so that every iteration reaches the kernel
        monkeypatch.setattr(linalg, "SWEEP_CAP", 0)
        monkeypatch.setattr(linalg, "_eigensolve", lambda A, R: None)
        rc = main(
            ["fit", "--interval", "-3", "3", "--n-test", "40", "--m-max", "3",
             "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"0.5\n\xff\xfe\n"])
    def test_unreadable_nodes_file_exit_2(self, content, tmp_path, capsys):
        nodes = tmp_path / "nodes.txt"
        if content is not None:
            nodes.write_bytes(content)
        rc = main(["fit", "--nodes", str(nodes), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert str(nodes) in capsys.readouterr().err

    def test_malformed_nodes_line_exit_2(self, tmp_path, capsys):
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("# header\n0.5\n1.5 2.5\n3.0\n")
        rc = main(["fit", "--nodes", str(nodes), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"{nodes}:3:" in capsys.readouterr().err

    def test_json_round_trip_bits(self, tmp_path):
        out = tmp_path / "run"
        args = ["fit", "--interval", "-5", "5", "--n-test", "200",
                "--m-max", "6", "--tol", "0", "--out", str(out)]
        assert main(args) == 0
        grid = np.linspace(-5, 5, 200)
        approx, _ = aaa_fit(grid, AaaConfig(m_max=6, tol=0.0))
        with open(out / "approximant.json") as fh:
            loaded = approximant_from_dict(json.load(fh))
        points = np.linspace(-18, 18, 100)
        assert np.array_equal(loaded.eval(points), approx.eval(points))
        # and the dict itself round-trips through the constructor
        again = approximant_from_dict(approximant_to_dict(loaded))
        assert np.array_equal(again.coefficients, loaded.coefficients)

    def test_csv_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = ["fit", "--interval", "-4", "4", "--n-test", "150",
                    "--m-max", "5", "--tol", "0", "--lawson", "2",
                    "--out", str(out)]
            assert main(args) == 0
            outs.append(out)
        for name in ("trace.csv", "approximant.json", "metrics.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            approximant_from_dict({"kind": "mystery", "support": [0.0]})


def check_metadata(path, figure_fits):
    """A figure's metadata reads the Padé degree and the support counts of
    ``FIGURE_FITS``, which are those of the fitted approximants."""
    with open(path) as fh:
        meta = json.load(fh)
    assert meta["pade_degree"] == PADE_DEGREE
    for key, name in (("aaa_support_nodes", "aaa_mod"), ("lawson_support_nodes", "lawson_mod")):
        assert meta[key] == FIGURE_FITS[name].m_max == figure_fits[name][0].support.size


class TestFigure1:
    def test_columns_and_error_bands(self, figure1_dir):
        header, cols = read_csv(figure1_dir / "figure1.csv")
        assert header == ["x", "abserr_pade13", "abserr_aaalawson_13_13"]
        x = cols["x"]
        assert x[0] == -13.9 and x[-1] == 13.9 and x.size == 2000
        for endpoint in (0, -1):
            assert 1e-6 <= cols["abserr_pade13"][endpoint] <= 1e-4
        assert np.max(cols["abserr_aaalawson_13_13"]) <= 1e-12
        with open(figure1_dir / "figure1_metadata.json") as fh:
            meta = json.load(fh)
        assert meta["pade_degree"] == 13
        assert meta["lawson_steps"] == 20

    def test_metadata_follows_the_table(self, figure1_dir, figure_fits):
        check_metadata(figure1_dir / "figure1_metadata.json", figure_fits)


class TestFigure2:
    def test_columns_and_unitarity_bands(self, figure2_dir):
        header, cols = read_csv(figure2_dir / "figure2.csv")
        assert header == [
            "x",
            "unitdev_aaa_orig",
            "unitdev_aaa_mod",
            "unitdev_lawson_orig",
            "unitdev_lawson_mod",
        ]
        x = cols["x"]
        assert x[0] == -40.0 and x[-1] == 40.0 and x.size == 10001
        at35 = np.flatnonzero(x == 35.0)
        assert at35.size == 1
        k = at35[0]
        for name in ("unitdev_aaa_mod", "unitdev_lawson_mod"):
            assert np.max(cols[name]) <= 1e-15
        assert cols["unitdev_aaa_orig"][k] >= 10 * cols["unitdev_aaa_mod"][k]

    def test_columns_and_metadata_follow_the_table(self, figure2_dir, figure_fits):
        header, _ = read_csv(figure2_dir / "figure2.csv")
        assert header == ["x"] + ["unitdev_" + name for name in FIGURE_FITS]
        check_metadata(figure2_dir / "figure2_metadata.json", figure_fits)

    def test_modified_curves_match_under_one_blas_thread(self, figure1_dir, figure2_dir,
                                                         tmp_path):
        # LAPACK's complex tall QR rounds otherwise under one thread, which
        # moves the original curves; the modified curves keep every byte.
        # Figure 2's unitarity deviations sit at rounding level whatever the
        # coefficients, so figure 1's error curve of the modified Lawson fit,
        # which reads them, and its route's Gram products, must match too
        def columns(path):
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            return {name: [row[i] for row in rows] for i, name in enumerate(header)}
        for figure, ours, names in (
                ("1", figure1_dir, ["abserr_aaalawson_13_13"]),
                ("2", figure2_dir, ["unitdev_aaa_mod", "unitdev_lawson_mod"])):
            out = tmp_path / figure
            proc = subprocess.run(
                [sys.executable, "-m", "unirat.cli", "figure", figure, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            )
            assert proc.returncode == 0, proc.stderr
            csv = f"figure{figure}.csv"
            mine, child = columns(ours / csv), columns(out / csv)
            for name in names:
                assert child[name] == mine[name]


def _nan(sign, payload):
    """A NaN with the given sign bit and quiet-NaN payload."""
    return float(np.array([(sign << 63) | (0x7FF8 << 48) | payload],
                          dtype=np.uint64).view(float)[0])


#: Values a column's bit-pattern table must keep apart, or must print alike.
SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                  float(np.nan), _nan(1, 0), _nan(0, 12345), _nan(1, 1 << 40)]


@st.composite
def csv_columns(draw):
    """Equal-length columns: floats drawn from a small pool (so values
    repeat) that holds both zeros and several NaNs, free floats with
    subnormals, and int and bool columns as ``trace.csv`` passes them; each
    as an array, a list or a tuple."""
    n = draw(st.integers(0, 40))
    pool = draw(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=4))
    pool += SPECIAL_FLOATS
    kinds = [st.sampled_from(pool), st.floats(),
             st.integers(-2**62, 2**62), st.booleans()]
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.lists(draw(st.sampled_from(kinds)), min_size=n, max_size=n))
        wrap = draw(st.sampled_from([list, tuple, np.array]))
        columns.append(wrap(values))
    return columns


class TestWriteCsv:
    def test_matches_per_element_repr(self, tmp_path):
        special = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1, -2.5e-308]
        # an array, a list of floats and a tuple of ints, as the CLI passes
        columns = [np.array(special), special[::-1], tuple(range(8))]
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], columns)
        expected = "a,b,c\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))
        assert (tmp_path / "t.csv").read_text() == expected

    @pytest.mark.parametrize("columns", [
        [[1.0, 2.0, 3.0], [4.0, 5.0]],   # zip would keep the first two rows
        [1.0, 3.0],                      # scalars are not columns
        [[[1.0], [2.0]], [[3.0], [4.0]]],  # nor are 2-D arrays
    ])
    def test_ragged_columns_rejected(self, tmp_path, columns):
        with pytest.raises(ValueError, match="flat and of equal length"):
            write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]])
    def test_header_length_rejected(self, tmp_path, header):
        with pytest.raises(ValueError, match="header names for 2 columns"):
            write_csv(tmp_path / "t.csv", header, [[1.0, 2.0], [4.0, 5.0]])
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_header_name_needing_quotes_rejected(self, tmp_path, name):
        with pytest.raises(ValueError, match="header name"):
            write_csv(tmp_path / "t.csv", [name], [[1.0, 2.0]])
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("column", [np.array([1 + 2j, 3j]), [1.0, 2j], ["1.5", "2"]])
    def test_non_real_column_rejected(self, tmp_path, column):
        # a plain cast to float would write a complex column's real parts,
        # warning only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="must be real numbers"):
                write_csv(tmp_path / "t.csv", ["a"], [column])
        assert not os.listdir(tmp_path)

    def test_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "t.csv"
        old = os.umask(0o022)
        try:
            write_csv(path, ["a"], [[1.0]])
            assert os.stat(path).st_mode & 0o777 == 0o644
            os.chmod(path, 0o600)
            write_csv(path, ["a"], [[2.0]])  # a replaced file takes the new file's mode
            assert os.stat(path).st_mode & 0o777 == 0o644
        finally:
            os.umask(old)
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_failed_write_leaves_no_temporary(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write_csv(tmp_path / "t.csv", ["a"], [[1.0]])
        assert not os.listdir(tmp_path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csv_columns())
    @example([np.array([0.0, -0.0, 0.0, _nan(1, 0), float(np.nan), _nan(0, 7), -0.0])])
    def test_matches_per_cell_repr(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(path, header, columns)
        expected = ",".join(header) + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))
        assert path.read_text() == expected


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "unirat.cli", "fit", "--interval", "-2", "2",
             "--n-test", "50", "--m-max", "3", "--tol", "0",
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(tmp_path / "metrics.json")

    @pytest.mark.parametrize("variant", ["original", "modified"])
    def test_tiny_interval_warns_nothing(self, tmp_path, variant):
        # nodes near 1e-300 overflow the warm step's norms; its record is
        # formed under one errstate and reads degenerate (an infinite
        # ||R||_F leaves gap_bound's bound at 0), so the step runs the kernel
        # and no warning escapes
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "unirat.cli", "fit",
             "--interval", "1e-310", "1e-300", "--n-test", "5", "--m-max", "3",
             "--lawson", "1", "--variant", variant, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.parametrize("variant", ["original", "modified"])
    def test_far_apart_nodes_warn_nothing(self, tmp_path, variant):
        # 1e308 and 2e-310 in one node file: the modified fit's coefficient
        # at the support node 3.0 is subnormal, so its Cayley value there,
        # conj(d)/d, overflows a plain complex divide.  At the test node
        # 1.5e308 every Cauchy entry is subnormal, and so are the numerator
        # and denominator of the fit's node value there, whose plain divide
        # overflowed and read as a pole of the step's approximant.  Each
        # such quotient is divided again with n and d scaled by a power of
        # two, and max_error is finite
        runs = {"3\n1e308\n2e-310\n0.75\n": ["--m-max", "3"],
                "3\n1.5e308\n0.75\n-1\n2\n": ["--m-max", "2", "--lawson", "1"]}
        for i, (text, options) in enumerate(runs.items()):
            nodes, out = tmp_path / f"nodes{i}.txt", tmp_path / f"out{i}"
            nodes.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "unirat.cli", "fit",
                 "--nodes", str(nodes), "--tol", "0", "--variant", variant, *options,
                 "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert "Traceback" not in proc.stderr, text
            assert "Warning" not in proc.stderr, proc.stderr
            assert proc.returncode == 0, text
            with open(out / "metrics.json") as fh:
                assert math.isfinite(json.load(fh)["max_error"])


class TestInputBoundary:
    def test_nan_tol_exit_2(self, tmp_path, capsys):
        rc = main(["fit", "--n-test", "50", "--tol", "nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit", "--n-test", "50", "--m-max", "3"],
                                         ["figure", "1"]])
    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_not_a_directory_exit_2(self, command, sub, tmp_path, capsys):
        # --out names an existing file, or a path below one
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(command + ["--out", str(blocker / sub)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_out_checked_before_fit(self, tmp_path, monkeypatch, capsys):
        def no_fit(*args):
            raise AssertionError("aaa_fit ran before --out was checked")
        monkeypatch.setattr("unirat.cli.aaa_fit", no_fit)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["fit", "--n-test", "50", "--out", str(blocker)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes, args, pair", [
        ("0 1e-310 2e-310 1 2 3 4 5", [], "0.0 and 1e-310"),
        ("-1e308 0 1e308 5 6 7", [], "-1e+308 and 1e+308"),
        ("-1e308 0 1e308 5 6 7", ["--lawson", "2"], "-1e+308 and 1e+308"),
    ])
    def test_node_difference_out_of_range_exit_2(self, tmp_path, capsys, nodes, args, pair):
        # 1 / 1e-310 and 1e308 - (-1e308) overflow: the pair is named before
        # any arithmetic warns
        path = tmp_path / "nodes.txt"
        path.write_text("\n".join(nodes.split()) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", "--nodes", str(path), "--m-max", "3", *args,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"nodes {pair}: their difference" in capsys.readouterr().err

    def test_interval_width_out_of_range_exit_2(self, tmp_path, capsys):
        # the width overflows, so the interval is rejected before linspace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", "--interval", " -1e308", "1e308", "--out", str(tmp_path)])
        assert rc == 2
        assert "interval [-1e+308, 1e+308]" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"kind": "cayley", "support": [0.0], "coeff_re": [1.0]},
        {"kind": "noninterpolatory", "support": [0.0], "alpha_re": [1.0],
         "alpha_im": [0.0]},
        {"support": [0.0], "coeff_re": [1.0], "coeff_im": [0.0]},
        {"kind": "interpolatory", "coeff_re": [1.0], "coeff_im": [0.0]},
    ])
    def test_missing_key_rejected(self, doc):
        with pytest.raises(InvalidInputError):
            approximant_from_dict(doc)

    @pytest.mark.parametrize("doc", [None, [1.0], "cayley", 3.0])
    def test_non_object_rejected(self, doc):
        with pytest.raises(InvalidInputError):
            approximant_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"kind": ["cayley"], "support": [0.0]},
        {"kind": "cayley", "support": ["a"], "coeff_re": [1.0], "coeff_im": [0.0]},
        {"kind": "cayley", "support": [0.0], "coeff_re": ["a"], "coeff_im": [0.0]},
        {"kind": "cayley", "support": [0.0, 1.0], "coeff_re": [1.0, 2.0],
         "coeff_im": [0.0, 1.0, 2.0]},
        # integers beyond float range
        {"kind": "cayley", "support": [10**400], "coeff_re": [1.0], "coeff_im": [0.0]},
        {"kind": "cayley", "support": [0.0], "coeff_re": [10**400], "coeff_im": [0.0]},
    ])
    def test_malformed_values_rejected(self, doc):
        with pytest.raises(InvalidInputError):
            approximant_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"kind": "cayley", "support": [0, 1], "coeff_re": [1, 2], "coeff_im": [1]},
        {"kind": "cayley", "support": [0, 1], "coeff_re": [[1, 2]], "coeff_im": [[1, 2]]},
        {"kind": "cayley", "support": [0], "coeff_re": 1, "coeff_im": 1},
    ])
    def test_unequal_or_nested_parts_rejected(self, doc):
        # re + 1j * im would broadcast these into a coefficient vector
        with pytest.raises(InvalidInputError, match="coeff_re and coeff_im"):
            approximant_from_dict(doc)


FORMS = {
    "interpolatory": lambda y, a, b: BarycentricInterpolant(support=y, coefficients=b),
    "cayley": lambda y, a, b: CayleyApproximant(support=y, coefficients=b),
    "noninterpolatory": lambda y, a, b: NonInterpolatoryApproximant(
        support=y, alpha=a, beta=b),
}


@st.composite
def approximant_inputs(draw):
    """Support nodes and coefficient vectors over the whole float range, so
    that some norms overflow or underflow and are rescaled."""
    m = draw(st.integers(1, 6))
    y = draw(st.lists(st.floats(-50, 50), min_size=m, max_size=m, unique=True))
    part = st.floats(allow_nan=False, allow_infinity=False)
    a = [complex(draw(part), draw(part)) for _ in range(m)]
    b = [complex(draw(part), draw(part)) for _ in range(m)]
    return np.array(y), np.array(a), np.array(b)


def bits(v):
    return np.asarray(v).view(np.uint64)


class TestJsonProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(approximant_inputs())
    def test_round_trip_bits(self, case):
        y, a, b = case
        assume(np.any(b != 0.0))
        for kind, form in FORMS.items():
            r = form(y, a, b)
            doc = approximant_to_dict(r)
            assert doc["kind"] == kind
            loaded = approximant_from_dict(json.loads(json.dumps(doc)))
            assert type(loaded) is type(r)
            for field in ("support",) + type(r).COEFFICIENTS:
                assert np.array_equal(bits(getattr(loaded, field)),
                                      bits(getattr(r, field))), (kind, field)
            assert approximant_to_dict(loaded) == doc


#: Edge texts for the CLI's float arguments and node lines: signed zeros,
#: subnormals, values at the edge of the float range or past it (1e400
#: parses to inf), NaN and infinities, and non-numbers.
EDGE_NUMBERS = ["0", "-0", "-0.0", "5e-324", "-5e-324", "2e-310", "1e308", "-1e308", "1e400",
                "nan", "inf", "-inf", "abc", "", "1,5"]
#: Edge texts for the CLI's integer arguments.
EDGE_COUNTS = ["-1", "0", "1", "x", "2.5", "1e3"]
#: The words by which a message names each option: its flag, and the name
#: that the library's message gives it.
OPTION_NAMES = {
    "--nodes": ("--nodes", "nodes"),
    "--interval": ("--interval", "interval"),
    "--n-test": ("--n-test", "interval", "test nodes"),
    "--m-max": ("--m-max", "m_max"),
    "--tol": ("--tol", "tol"),
    "--lawson": ("--lawson", "n_lawson"),
    "--variant": ("--variant", "variant"),
    "which": ("which",),
}


def pick(draw, valid, edge, odds):
    """A text from the strategy ``valid``, or one in ``odds`` times from the
    list ``edge``."""
    return draw(st.sampled_from(edge) if draw(st.integers(1, odds)) == 1 else valid)


@st.composite
def cli_arguments(draw):
    """``(argv, node lines)``: a ``fit`` argument list whose options are
    each left out or given a valid value or, one in four times, an edge
    value, with ``--nodes`` and its file's lines (one in ten an edge value,
    and a duplicate line) or ``--interval``; or a ``figure`` whose number is
    not 1 or 2.  ``argv`` leaves out ``--out`` and the node file's path,
    which the test adds."""
    if draw(st.integers(0, 9)) == 0:
        return ["figure", draw(st.sampled_from(["0", "3", "x", "-1"]))], None
    argv, lines = ["fit"], None
    if draw(st.booleans()):
        lines = [repr(x) for x in draw(st.lists(st.floats(-20, 20), min_size=2, max_size=14,
                                                unique=True))]
        for i in range(len(lines)):
            if draw(st.integers(1, 10)) == 1:
                lines[i] = draw(st.sampled_from(EDGE_NUMBERS + ["# note"]))
        if draw(st.integers(1, 6)) == 1:
            lines.append(lines[0])
        argv.append("--nodes")
    elif draw(st.booleans()):
        a, b = sorted(draw(st.lists(st.floats(-20, 20), min_size=2, max_size=2, unique=True)))
        argv += ["--interval", draw(st.sampled_from(EDGE_NUMBERS)) if draw(st.integers(1, 4)) == 1
                 else repr(a), repr(b)]
    options = {"--n-test": st.integers(2, 60).map(str), "--m-max": st.integers(1, 6).map(str),
               "--tol": st.sampled_from(["0", "1e-13", "1e-8"]),
               "--lawson": st.integers(0, 2).map(str), "--variant": st.sampled_from(VARIANTS)}
    for flag, valid in options.items():
        if draw(st.booleans()):
            edge = {"--tol": EDGE_NUMBERS, "--variant": ["cayley"]}.get(flag, EDGE_COUNTS)
            argv += [flag, pick(draw, valid, edge, 4)]
    return argv, lines


def run_main(argv, lines):
    """``(exit code, warnings, stderr)`` of ``main(argv + --out)``, in a
    temporary directory that also holds the node file of ``lines`` where
    ``argv`` has ``--nodes``."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--out", os.path.join(tmp, "out")]
        if lines is not None:
            path = os.path.join(tmp, "nodes.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            argv.insert(argv.index("--nodes") + 1, path)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, [str(w.message) for w in caught], err.getvalue()


def names_an_option(argv, message):
    """Whether ``message`` names one of the options in ``argv``, or the
    figure number of a ``figure`` command."""
    given_options = ["which"] if argv[0] == "figure" else [
        option for option in OPTION_NAMES if option in argv]
    return any(name in message for option in given_options for name in OPTION_NAMES[option])


class TestCliProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cli_arguments())
    def test_exit_codes_and_messages(self, case):
        # whatever the arguments, main exits 0, 1 or 2 and lets no exception
        # or warning out, and an exit-2 message names one of the options
        # given
        argv, lines = case
        code, caught, message = run_main(argv, lines)
        assert code in (0, 1, 2)
        assert caught == []
        assert code != 2 or names_an_option(argv, message), message

    def test_tiny_interval_message_names_interval(self):
        # 2000 nodes on [0, 2.2e-308] lie a subnormal step apart, whose
        # reciprocal overflows: interval_grid rejects the interval by name,
        # not the fit by two grid nodes that the user did not write
        argv = ["fit", "--interval", "0", "2.2250738585072014e-308"]
        code, caught, message = run_main(argv, None)
        assert (code, caught) == (2, [])
        assert names_an_option(argv, message), message
