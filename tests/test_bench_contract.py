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
    the cm_select counts by model."""
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
            runs.append((kwargs["model"], start, len(tracer.name)))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    rows = [(nm, names[p] if p >= 0 else None, c)
            for nm, p, c in zip(names, tracer.parent, tracer.count)]
    select_counts = {}
    for model, start, end in runs:
        select_counts.setdefault(model, []).extend(
            c for nm, _, c in rows[start:end] if nm == "engine.cm_select")
    return rows, select_counts


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


def test_cm_select_counts_determinant_evaluations(spans):
    _, counts = spans
    # the cell selector scores each of the four cells once per step
    assert counts["GLM_C1"] and set(counts["GLM_C1"]) == {4}
    # the interval selector evaluates the criterion along a simplex search
    m3 = np.array(counts["M3"])
    assert m3.size == 10 and np.all((m3 > 0) & (m3 <= 200))
