"""Count the lines of the ``unirat`` package: ``wc -l`` and code lines.

Usage::

    python3 tools/loc.py
    python3 tools/loc.py --against REV

The first form prints, for each module of ``src/unirat`` and in total, its
line count as ``wc -l`` gives it and its code lines: the lines that hold a
token other than a comment, leaving out blank lines and the docstrings of
modules, classes and functions.  A line that holds a docstring and code
both, as ``def f(): "doc"; return 1`` does, counts as code.

The second form counts the ``src`` tree of the git revision REV (through
``git archive``, as ``tools/golden.py --against`` does) and the working
tree's, and prints both counts and their difference per module and in total.
If git cannot archive REV, it prints git's message and exits 2.
"""

import ast
import importlib.util
import io
import os
import sys
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = "unirat"

# tools/golden.py, whose ``extract`` takes REV's ``src`` tree out of git
_spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

#: Tokens that make no line a code line.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(row, col) of the first character of each module, class and function
    docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(text):
    """``(lines, code)`` of one module's source text: its newline count, as
    ``wc -l`` gives it, and its code lines."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def count_tree(src):
    """{module file name: (lines, code)} over the package in ``src``."""
    package = os.path.join(src, PACKAGE)
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                out[name] = count(fh.read())
    return out


def _total(counts):
    return tuple(map(sum, zip(*counts.values()))) if counts else (0, 0)


def report(counts):
    """Lines of a table of per-module counts and their total."""
    rows = [f"{'module':<18} {'wc -l':>6} {'code':>6}"]
    for name, (lines, code) in {**counts, "total": _total(counts)}.items():
        rows.append(f"{name:<18} {lines:>6} {code:>6}")
    return rows


def report_against(old, new):
    """Lines of a table of two trees' per-module counts and their change."""
    rows = [f"{'module':<18} {'wc -l':>13} {'change':>6} {'code':>13} {'change':>6}"]
    names = sorted(set(old) | set(new))
    for name in names + ["total"]:
        a = _total(old) if name == "total" else old.get(name, (0, 0))
        b = _total(new) if name == "total" else new.get(name, (0, 0))
        rows.append(f"{name:<18} {a[0]:>6} → {b[0]:<4} {b[0] - a[0]:>+6} "
                    f"{a[1]:>6} → {b[1]:<4} {b[1] - a[1]:>+6}")
    return rows


def against(rev):
    """The counts of REV's ``src`` tree and of the working tree's."""
    with tempfile.TemporaryDirectory() as tmp:
        return count_tree(golden.extract(rev, tmp)), count_tree(SRC)


def main(argv):
    if not argv:
        print("\n".join(report(count_tree(SRC))))
        return 0
    if len(argv) == 2 and argv[0] == "--against":
        try:
            counts = against(argv[1])
        except golden.RevisionError as err:
            print(err, file=sys.stderr)
            return 2
        print("\n".join(report_against(*counts)))
        return 0
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: python3 tools/loc.py\n"
          "       python3 tools/loc.py --against REV", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
