"""Command-line front end: artifacts, exit codes, determinism, round-trips."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from unirat import (
    AaaConfig,
    BarycentricInterpolant,
    CayleyApproximant,
    NonInterpolatoryApproximant,
    aaa_fit,
)
from unirat.cli import (
    approximant_from_dict,
    approximant_to_dict,
    load_nodes,
    main,
)
from unirat.errors import InvalidInputError


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
        monkeypatch.setenv("UNIRAT_SWEEP_CAP", "0")
        rc = main(
            ["fit", "--interval", "-3", "3", "--n-test", "40", "--m-max", "3",
             "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_sweep_cap_exit_2(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("UNIRAT_SWEEP_CAP", value)
        rc = main(
            ["fit", "--interval", "-3", "3", "--n-test", "40", "--m-max", "3",
             "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "UNIRAT_SWEEP_CAP" in capsys.readouterr().err

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


class TestInputBoundary:
    def test_nan_tol_exit_2(self, tmp_path, capsys):
        rc = main(["fit", "--n-test", "50", "--tol", "nan", "--out", str(tmp_path)])
        assert rc == 2
        assert "tol" in capsys.readouterr().err

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
    ])
    def test_malformed_values_rejected(self, doc):
        with pytest.raises(InvalidInputError):
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
