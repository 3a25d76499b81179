"""tools/loc.py: line and code-line counts of the package's modules."""

import shutil
import subprocess

import pytest

from conftest import load_script

loc = load_script("tools", "loc.py")

#: A module whose code lines are marked ``# code``; its docstrings, comments
#: and blank lines are not code.
MODULE = '''"""Module docstring,
over two lines."""

import math  # code


class Thing:  # code
    """Class docstring."""

    #: a comment
    size = 3  # code

    def area(self):  # code
        """Method docstring,

        with a blank line."""
        return math.pi * (  # code
            self.size ** 2)  # code


def text():  # code
    x = 1  # code
    """A string after the first statement is an expression, not a docstring."""
    return """a multi-line  # code
string literal"""  # code


def short(): "docstring and code on one line"; return 1  # code
'''


def test_counts_code_lines_only():
    lines, code = loc.count(MODULE)
    assert lines == MODULE.count("\n") == 28
    marked = sum("# code" in line for line in MODULE.splitlines())
    # the expression string in text() is code, and unmarked
    assert code == marked + 1 == 12


def test_empty_and_docstring_only_modules():
    assert loc.count("") == (0, 0)
    assert loc.count('"""Only a docstring."""\n\n# and a comment\n') == (3, 0)


def test_count_tree_and_report(tmp_path):
    package = tmp_path / "src" / loc.PACKAGE
    package.mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "b.py").write_text("x = 1\n\n")
    (package / "notes.txt").write_text("not a module\n")
    counts = loc.count_tree(str(tmp_path / "src"))
    assert counts == {"a.py": (28, 12), "b.py": (2, 1)}
    assert loc.report(counts)[-1].split() == ["total", "30", "13"]
    # b.py is gone from the new tree and c.py is new
    rows = loc.report_against(counts, {"a.py": (30, 12), "c.py": (5, 4)})
    assert [row.split()[0] for row in rows[1:]] == ["a.py", "b.py", "c.py", "total"]
    assert rows[-1].split() == ["total", "30", "→", "35", "+5", "13", "→", "16", "+3"]


def test_usage_exit_2(capsys):
    assert loc.main(["--bogus"]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_unknown_revision_exit_2(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.setattr(loc.golden, "ROOT", str(tmp_path))
    assert loc.main(["--against", "no-such-revision"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no-such-revision" in err  # git's own message
