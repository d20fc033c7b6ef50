"""The benchmark's tracer still sees every layer it reports on.

bench/tracing.py wraps module attributes of the package (engine.run,
modelspec.fit, engine._rebuild_cum_info, ...) and reads per-layer figures
from the spans those wrappers record.  A layer reached by a path that does
not go through those attributes would silently drop out of the figures, so
these runs trace small studies in-process and check that every span the
per-layer metrics read is recorded, under the parent the metrics expect.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from seqdopt import engine
from seqdopt.config import parse_config

BENCH = Path(__file__).resolve().parent.parent / "bench"

CONFIGS = [
    dict(model="M3", method="cm", n1=20, n=30),
    dict(model="M3", method="pics", n1=20, n=30),
    dict(model="M3", method="balanced_pics", n1=20, n=30),
    dict(model="GLM_C1", method="cm", n1=8, n=30),
    dict(model="GLM_C2", method="pics", n1=8, n=30),
]

STEPS = ("engine.cm_step", "engine.pics_step")


@pytest.fixture(scope="module")
def spans():
    """(name, parent name, count) of every span of the traced runs, plus
    the rows of each run by (model, method)."""
    sys.path.insert(0, str(BENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(BENCH))
    tracer = Tracer()
    tracer.install()
    runs = []
    try:
        for kwargs in CONFIGS:
            start = len(tracer.name)
            engine.run(parse_config(seed=3, **kwargs))
            runs.append(((kwargs["model"], kwargs["method"]), start, len(tracer.name)))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    rows = [(nm, names[p] if p >= 0 else None, c)
            for nm, p, c in zip(names, tracer.parent, tracer.count)]
    return rows, {key: rows[start:end] for key, start, end in runs}


@pytest.mark.parametrize("name, parents", [
    ("engine.run", (None,)),
    ("engine.stage1", ("engine.run",)),
    ("engine.cm_step", ("engine.run",)),
    ("engine.pics_step", ("engine.run",)),
    ("engine.cm_select", ("engine.cm_step",)),
    ("engine.info", STEPS),
    ("designs.plugin", ("engine.pics_step",)),
    ("fitting.fit", ("engine.stage1",)),   # the cold fit
    ("fitting.fit", STEPS),                # the sequential refits
    ("modelspec.simulate", STEPS),
])
def test_every_layer_span_is_recorded(spans, name, parents):
    rows, _ = spans
    assert any(nm == name and parent in parents for nm, parent, _ in rows)


def test_uninstall_restores_the_package(spans):
    assert not hasattr(engine.run, "__wrapped__")
    assert not hasattr(engine.det_sym, "__wrapped__")


@pytest.mark.parametrize("run", [("M3", "pics"), ("GLM_C2", "pics")])
def test_every_step_fits_and_rebuilds_the_information_through_the_spans(spans, run):
    # per model, not over all runs: a growth step whose information skips
    # engine._rebuild_cum_info would leave engine.info without samples
    _, by_run = spans
    config = next(c for c in CONFIGS if (c["model"], c["method"]) == run)
    steps = config["n"] - config["n1"]
    for name, parents, count in (("engine.info", STEPS, steps),
                                 ("fitting.fit", STEPS, steps),
                                 ("fitting.fit", ("engine.stage1",), 1)):
        assert sum(nm == name and parent in parents
                   for nm, parent, _ in by_run[run]) == count, (name, parents)


def test_cm_select_counts_determinant_evaluations(spans):
    _, by_run = spans

    def counts(run):
        return np.array([c for nm, _, c in by_run[run] if nm == "engine.cm_select"])
    # the cell selector scores each of the four cells once per step
    glm = counts(("GLM_C1", "cm"))
    assert glm.size and set(glm) == {4}
    # the interval selector evaluates the criterion along a simplex search
    m3 = counts(("M3", "cm"))
    assert m3.size == 10 and np.all((m3 > 0) & (m3 <= 200))
