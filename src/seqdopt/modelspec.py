"""The model table: every per-model fact of the five models, in one place.

``MODELS`` maps the growth models M1/M2/M3 (scalar input interval) and the
2x2 factorial logistic models GLM_C1 (equal coefficients) and GLM_C2 (zero
two-factor coefficient, matched signs) to their entries; the growth/logistic
split is written once, as the two entry classes.  An entry holds the run
defaults (a ``RunConfig`` takes every default it has from here) and config
rules, the closed form, fit and response draw, a point's information and
the cumulative one (from the fit, or from the cell table that the logistic
entry makes and fills, and whose cells it offers cm as candidates), the
point encoding and CSV columns, the study aggregate and the grid oracle;
every model takes every method.  The rest of the package asks the entry
(``model.family``) or the spec's fields, never which model it runs; the
engine calls ``fit``, ``simulate`` and ``closed_form_design`` through this
module, so a tracer can wrap them.  A ``ModelSpec`` holds a model's name
and simulation truth, and a ``config.RunConfig`` is one that is checked and
also holds the run, so a run passes its config wherever a model is taken.
The growth functions (means, fits, closed forms, grid oracles) take the
spec and read its interval and known change point; the growth entry scales
by its sigma2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import designs, fitting, growth, logistic, metrics
from .linalg import det_sym


@dataclass(frozen=True)
class ModelSpec:
    """One of the five concrete models with its simulation truth, unchecked;
    a ``config.RunConfig`` is one that is checked and also holds the run."""

    model: str
    true_params: tuple | None = None
    sigma2: float | None = None      # growth models only
    x_min: float | None = None       # growth models only
    x_max: float | None = None       # growth models only
    x0_known: float | None = None    # M2 only

    @cached_property
    def family(self) -> _Growth | _Logistic:
        """The model's entry, which every step reads several times."""
        return MODELS[self.model]

    @property
    def dim(self) -> int:
        return self.family.dim

    @cached_property
    def success_probs(self) -> list[float]:
        """Logistic models: P(Y=1) at true_params in each cell, which every
        simulated trial reads."""
        return logistic.cell_probs(self.true_params)

    @cached_property
    def i_star(self) -> np.ndarray:
        """I*, the information at the closed form at the true values."""
        theta = self.true_params
        return metrics.design_info(self, theta, self.family.closed_form(self, theta))

    def __getstate__(self) -> dict:
        # only the fields are pickled; the cached properties are rebuilt on use
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Growth:
    """Growth curve on [x_min, x_max]: Gaussian responses, least-squares
    fits on the point and response lists, points stored as floats, and the
    pooled density of the adaptive points as the study aggregate."""

    initial_designs = ("uniform", "three_point")
    info_scale = "sigma2"   # the config field that scales the information
    columns = ("x",)
    aggregate = ("density", metrics.sequential_density, metrics.histogram_to_csv)

    def __init__(self, true_params, closed_form, rules=(), **defaults):
        self.dim = len(true_params)
        self.defaults = {"n1": 40, "n": 100, "initial_design": "uniform",
                         "true_params": true_params, "sigma2": 0.086,
                         "x_min": 0.5, "x_max": 210.0, **defaults}
        self.closed_form = closed_form   # (model, theta) -> DesignMeasure
        self.rules = (("sigma2", lambda c: c.sigma2 > 0.0, "growth models need sigma2 > 0"),
                      ("x_min", lambda c: 0.0 < c.x_min < c.x_max, "need 0 < x_min < x_max"),
                      *rules)

    def initial_points(self, model, initial_design, n1, rng) -> list:
        if initial_design == "uniform":
            return [float(rng.uniform(model.x_min, model.x_max)) for _ in range(n1)]
        mid = (model.x_min + model.x_max) / 2.0   # three_point
        xi0 = designs.DesignMeasure((model.x_min, model.x_max, mid), (0.3, 0.3, 0.4))
        while True:   # conditioned on two distinct points, which a fit needs
            points = [designs.draw_point(xi0, rng) for _ in range(n1)]
            if min(points) < max(points):
                return points

    def new_table(self):
        return None   # a growth run keeps no cell table

    def observe(self, x, y, table):
        return x

    def fit(self, model, xs, ys, init, table) -> fitting.FitResult:
        if init is None:
            return fitting.nls_fit(model, xs, ys)
        return fitting.nls_refit(model, xs, ys, init)

    def cumulative_info(self, model, fit, table) -> np.ndarray:
        # the fit's J^T J is the sum of g g^T over the data at its estimate
        return fit.normal / model.sigma2

    def fisher_point(self, model, theta, x) -> np.ndarray:
        """Single-point information g g^T / sigma2, g the mean's gradient."""
        g = growth.growth_grad(model, theta, x)
        return np.outer(g, g) / model.sigma2

    def simulate(self, model, x, rng) -> float:
        # the mean at true_params plus N(0, sigma2) noise
        return (growth.growth_mean(model, model.true_params, x)
                + rng.normal(0.0, np.sqrt(model.sigma2)))

    def decode(self, x: np.ndarray) -> list:
        return x.tolist()

    def csv_points(self, x: np.ndarray) -> list[tuple]:
        return [(v,) for v in x.tolist()]

    def oracle(self, model, theta) -> designs.DesignMeasure:
        if self.dim == 2:
            return designs.grid_oracle_two_point(model, theta)
        return designs.grid_oracle_three_point(model, theta)


class _Logistic:
    """2x2 factorial logistic model: binary responses, exact constrained fits
    from the cell table, points stored as cell indices into ``LEVEL_POINTS``,
    and the pooled cell allocation as the study aggregate."""

    initial_designs = ("four_point",)
    info_scale = "true_params"   # the config field that scales the information
    columns = ("x1", "x2")
    aggregate = ("allocation", metrics.glm_allocation, metrics.allocation_to_csv)
    rules = (("n1", lambda c: c.n1 % 4 == 0, "four_point design needs 4 | n1, got {c.n1}"),)
    dim = 3

    def __init__(self, true_params, mle, closed_form):
        self.defaults = {"n1": 80, "n": 800, "initial_design": "four_point",
                         "true_params": true_params}
        self._mle = mle
        self.closed_form = closed_form   # (model, theta) -> DesignMeasure

    def initial_points(self, model, initial_design, n1, rng) -> list:
        cells = np.repeat(np.arange(4), n1 // 4)   # four_point: n1/4 per cell
        rng.shuffle(cells)
        return [logistic.LEVEL_POINTS[c] for c in cells]

    def new_table(self) -> list[list[float]]:
        return [[0.0] * 4, [0.0] * 4]   # trials and successes per cell

    def observe(self, x, y, table) -> int:
        """Tally the trial in the cell table; the point is stored as its cell."""
        c = logistic.cell_index(x)
        table[0][c] += 1.0
        table[1][c] += float(y)
        return c

    def fit(self, model, xs, ys, init, table) -> fitting.FitResult:
        return self._mle(counts=table[0], successes=table[1])

    def cumulative_info(self, model, fit, table) -> np.ndarray:
        return logistic.fisher_from_counts(table[0], fit.theta)

    def cm_candidates(self, theta) -> list[tuple]:
        """Each level pair with its single-trial information w_c x_c x_c^T,
        in lexicographic order of the pairs, which is the reverse cell order."""
        w = logistic.cell_weights(theta)
        return [(logistic.LEVEL_POINTS[c], w[c] * logistic.XXT_CELLS[c])
                for c in (3, 2, 1, 0)]

    def fisher_point(self, model, theta, x) -> np.ndarray:
        """Single-trial information of the point's cell, as cm scores it."""
        return self.cm_candidates(theta)[3 - logistic.cell_index(x)][1]

    def simulate(self, model, x, rng) -> int:
        # one Bernoulli draw at true_params, against the spec's cached cell
        # probabilities
        return int(rng.random() < model.success_probs[logistic.cell_index(x)])

    def decode(self, x: np.ndarray) -> list[tuple]:
        return [logistic.LEVEL_POINTS[c] for c in x.tolist()]

    csv_points = decode

    def oracle(self, model, theta) -> designs.DesignMeasure:
        return designs.grid_oracle_glm(theta)


#: the table, at the simulation study's true values
MODELS: dict[str, _Growth | _Logistic] = {
    "M1": _Growth((32.11, 105.65), designs.optimal_design_m1),
    "M2": _Growth((32.11, 105.65), designs.optimal_design_m2, x0_known=86.67,
                  rules=[("x0_known", lambda c: c.x_min < c.x0_known < c.x_max,
                          "known change point must lie inside the interval"),
                         # the closed form squares it (designs.m2_tau)
                         ("x0_known", lambda c: math.isfinite(c.x0_known * c.x0_known),
                          "known change point {c.x0_known!r} is too large to square")]),
    "M3": _Growth((32.11, 105.65, 86.67), designs.optimal_design_m3),
    "GLM_C1": _Logistic((0.7125, 0.7125, 0.7125), fitting.logistic_mle_c1,
                        lambda m, theta: designs.mandal_c1(theta)),
    "GLM_C2": _Logistic((1.5, 0.5, 0.0), fitting.logistic_mle_c2,
                        lambda m, theta: designs.mandal_c2(theta)),
}
MODEL_NAMES = tuple(MODELS)

def closed_form_design(model: ModelSpec, theta) -> designs.DesignMeasure:
    """Locally D-optimal design at `theta` for the model's family."""
    return model.family.closed_form(model, theta)


def simulate(model: ModelSpec, x, rng: np.random.Generator):
    """One response draw at x under the model's simulation truth."""
    return model.family.simulate(model, x, rng)


def fit(model: ModelSpec, xs, ys, init, table) -> fitting.FitResult:
    """Constrained MLE for the model; growth fits are least squares.

    The logistic fits are exact functions of the cell `table`, which the
    entry's ``new_table`` makes and ``observe`` fills, and ignore `xs`, `ys`
    and `init`.  A growth fit (no table) given `init`, a sequential refit
    from the previous estimate, runs Levenberg-Marquardt from it; without
    one it runs the cold variable-projection fit (``fitting.nls_fit``).
    """
    return model.family.fit(model, xs, ys, init, table)


def oracle_check(model: ModelSpec) -> dict:
    """The closed form at the true values against the family's brute-force
    grid oracle: both designs, their D-criteria, and the oracle's relative
    excess, which stays below 1e-3 where the closed form is optimal."""
    theta = np.asarray(model.true_params)
    closed = closed_form_design(model, theta)
    oracle = model.family.oracle(model, theta)
    val_closed = det_sym(metrics.design_info(model, theta, closed))
    val_oracle = det_sym(metrics.design_info(model, theta, oracle))
    return {"closed_form": json.loads(closed.to_json()),
            "oracle": json.loads(oracle.to_json()),
            "criterion_closed_form": val_closed,
            "criterion_oracle": val_oracle,
            "oracle_excess": val_oracle / val_closed - 1.0}
