"""tools/src_counts.py's three figures on a tree small enough to count by hand."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

#: src/seqdopt/a.py: 13 lines; code on lines 6, 9, 11, 12 and 13; the
#: defaults b, c and the lambda's y
A_PY = '''"""Module docstring
over two lines."""

# a comment line

X = 1  # trailing comment


def f(a, b=2, *, c=3, d):
    """One-line docstring."""
    s = """a string
that is code"""
    return lambda y=1: a + b + y + len(s)
'''

#: src/seqdopt/b.py: 6 lines; code on lines 1, 5 and 6; the default x
B_PY = '''class K:
    """Class
    docstring."""

    def m(self, x=None):
        pass
'''


def _src_counts():
    spec = importlib.util.spec_from_file_location("src_counts", TOOLS / "src_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_counts_on_a_two_file_tree(tmp_path, monkeypatch, capsys):
    pkg = tmp_path / "src" / "seqdopt"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(A_PY)
    (pkg / "b.py").write_text(B_PY)
    (tmp_path / "src" / "other.py").write_text("def g(z=0):\n    return z\n")  # not counted
    src_counts = _src_counts()
    assert src_counts.counts(tmp_path) == (19, 4, 8)
    monkeypatch.setattr("sys.argv", ["src_counts.py", str(tmp_path)])
    assert src_counts.main() == 0
    assert capsys.readouterr().out == ("src lines: 19\nparameters with defaults: 4\n"
                                       "code lines: 8\n")
