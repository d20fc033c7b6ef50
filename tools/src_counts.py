"""Print the three size figures of the package source.

Usage: python3 tools/src_counts.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script).  The first figure is the line count of ``src/seqdopt/*.py``, as
``wc -l`` totals it; the second is the number of parameters with a default
value, over every function, method and lambda in those files; the third is
the number of code lines there: lines that hold a token other than a
comment and lie outside the docstring of a module, class or function, so
that editing comments or docstrings does not move it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that are not code: comments, line ends, indentation and markers
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _code_lines(text: str, tree: ast.Module) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def counts(root: Path) -> tuple[int, int, int]:
    """(lines, parameters with defaults, code lines) of root's src/seqdopt/*.py."""
    lines = defaults = code = 0
    for path in sorted((root / "src" / "seqdopt").glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
        code += _code_lines(text, tree)
    return lines, defaults, code


def main() -> int:
    if len(sys.argv) > 2:
        print("usage: python3 tools/src_counts.py [ROOT]", file=sys.stderr)
        return 2
    root = Path(sys.argv[1]) if len(sys.argv) == 2 else Path(__file__).resolve().parents[1]
    lines, defaults, code = counts(root)
    print(f"src lines: {lines:,}")
    print(f"parameters with defaults: {defaults}")
    print(f"code lines: {code:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
