"""The model table is the one place that names a model: no other module of
the package compares a model's name or asks whether it is logistic."""

import re
from pathlib import Path

import seqdopt

SRC = Path(seqdopt.__file__).parent

#: comparisons against a model name, or tests of the model kind
MODEL_BRANCH = re.compile(r"""==\s*["'](M1|M2|M3|GLM_C1|GLM_C2)["']|\.name\s*==|is_glm"""
                          r"""|startswith\(\s*["']GLM""")


def model_branches(src: Path) -> list[str]:
    """`file:line: text` of every model-name comparison outside modelspec.py."""
    return [f"{path.name}:{k}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "modelspec.py"
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if MODEL_BRANCH.search(line)]


def test_src_names_no_model_outside_the_table():
    assert model_branches(SRC) == []
