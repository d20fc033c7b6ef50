"""The model table is the one place that names a model: no other module of
the package compares a model's name or asks whether it is logistic.  It is
also the one home of a run's defaults: a RunConfig field the table holds a
default for is None until the config fills it from the table."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import seqdopt
from seqdopt.config import RunConfig, parse_config
from seqdopt.engine import run
from seqdopt.modelspec import MODELS, ModelSpec

SRC = Path(seqdopt.__file__).parent
ROOT = Path(__file__).parent.parent

#: comparisons against a model name, or tests of the model kind
MODEL_BRANCH = re.compile(r"""==\s*["'](M1|M2|M3|GLM_C1|GLM_C2)["']|\.model\s*==|is_glm"""
                          r"""|startswith\(\s*["']GLM""")


def model_branches(src: Path) -> list[str]:
    """`file:line: text` of every model-name comparison outside modelspec.py."""
    return [f"{path.name}:{k}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "modelspec.py"
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if MODEL_BRANCH.search(line)]


def test_src_names_no_model_outside_the_table():
    assert model_branches(SRC) == []


def test_run_config_takes_every_table_default_from_the_table():
    tabled = {name for family in MODELS.values() for name in family.defaults}
    own = {f.name: f.default for f in fields(RunConfig) if f.name in tabled}
    assert own == dict.fromkeys(tabled)


def test_no_file_names_a_separate_config_check():
    # a RunConfig checks itself when it is built; the name is spelled in two
    # parts so that this file does not hold it either
    paths = [ROOT / "README.md", *(p for d in ("src", "tests", "demos")
                                   for p in sorted((ROOT / d).rglob("*.py")))]
    assert [p.name for p in paths if "validate" + "_config" in p.read_text()] == []


def test_a_run_config_is_its_model_spec():
    # the model's fields are declared once, on ModelSpec; a run's config is
    # the spec the model functions take and its trajectory keeps, so no copy
    # of it is built (the copying method's name is spelled in two parts, so
    # that this file does not hold it either)
    assert issubclass(RunConfig, ModelSpec)
    assert not set(vars(RunConfig)["__annotations__"]) & {f.name for f in fields(ModelSpec)}
    cfg = parse_config(model="M1", n=42)
    assert run(cfg).model is cfg
    paths = [ROOT / "README.md", *(p for d in ("src", "tests", "demos")
                                   for p in sorted((ROOT / d).rglob("*.py")))]
    assert [p.name for p in paths if "to" + "_model" in p.read_text()] == []


def test_no_file_names_a_second_home_of_a_run_fact():
    # I* is the spec's i_star, the mean curve is built once in run_experiment,
    # and a run's static-stage compute is row n1 of its step_ms.  The names
    # are spelled in parts so that this file does not hold them either;
    # timing.json's key for that row is a string, not a field.
    stage1 = "stage1" + "_ms"
    second = re.compile("true_fisher" + "_info|mean_efficiency" + r"\("
                        + rf"|\.{stage1}\b|\b{stage1}\s*[:=]")
    paths = [ROOT / "README.md", *(p for d in ("src", "tests", "demos")
                                   for p in sorted((ROOT / d).rglob("*.py")))]
    assert [p.name for p in paths if second.search(p.read_text())] == []


def test_engine_reaches_a_family_only_through_its_entry():
    # the engine imports nothing from the growth or logistic modules: a
    # point's information, the cell table and cm's candidate cells come
    # from the model's entry
    tree = ast.parse((SRC / "engine.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not {"growth", "logistic"} & imported
