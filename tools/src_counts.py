"""Print the two size figures of the package source.

Usage: python3 tools/src_counts.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script).  The first figure is the line count of ``src/seqdopt/*.py``, as
``wc -l`` totals it; the second is the number of parameters with a default
value, over every function, method and lambda in those files.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def counts(root: Path) -> tuple[int, int]:
    """(lines, parameters with defaults) of root's src/seqdopt/*.py."""
    lines = defaults = 0
    for path in sorted((root / "src" / "seqdopt").glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
    return lines, defaults


def main() -> int:
    if len(sys.argv) > 2:
        print("usage: python3 tools/src_counts.py [ROOT]", file=sys.stderr)
        return 2
    root = Path(sys.argv[1]) if len(sys.argv) == 2 else Path(__file__).resolve().parents[1]
    lines, defaults = counts(root)
    print(f"src lines: {lines:,}")
    print(f"parameters with defaults: {defaults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
