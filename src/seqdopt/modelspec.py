"""The model table: every per-model fact of the five models, in one place.

``MODELS`` maps the growth models M1/M2/M3 (scalar input interval) and the
2x2 factorial logistic models GLM_C1 (equal coefficients) and GLM_C2 (zero
two-factor coefficient, matched signs) to their entries; the growth/logistic
split is written once, as the two entry classes.  An entry holds the run
defaults and config rules, the closed form, fit and simulation, the
information from the fit or the engine's cell table, the point encoding
and CSV columns, the study aggregate and the grid oracle; every model takes
every method.  The rest of the package asks the entry (``model.family``),
never which model it runs; the engine calls ``fit``, ``simulate`` and
``closed_form_design`` through this module, so a tracer can wrap them.
The growth functions (means, fits, closed forms, grid oracles) take the
``ModelSpec`` itself and read its name, interval, change point and sigma2,
so those facts are held only by the spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import designs, fitting, growth, logistic, metrics


@dataclass(frozen=True)
class ModelSpec:
    """One of the five concrete models with its simulation truth; its rules
    are checked by ``config.validate_config``."""

    name: str
    theta_star: tuple
    sigma2: float | None = None      # growth models only
    x_min: float = 0.5
    x_max: float = 210.0
    x0_known: float | None = None    # M2 only

    @property
    def family(self) -> _Growth | _Logistic:
        return MODELS[self.name]

    @property
    def is_glm(self) -> bool:
        return isinstance(self.family, _Logistic)

    @property
    def dim(self) -> int:
        return self.family.dim

    @cached_property
    def success_probs(self) -> list[float]:
        """Logistic models: P(Y=1) at theta_star in each cell, which every
        simulated trial reads."""
        return logistic.cell_probs(self.theta_star).tolist()

    def __getstate__(self) -> dict:
        # only the fields are pickled; success_probs is rebuilt on use
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Growth:
    """Growth curve on [x_min, x_max]: Gaussian responses, least-squares
    fits on the point and response lists, points stored as floats, and the
    pooled density of the adaptive points as the study aggregate."""

    initial_designs = ("uniform", "three_point")
    columns = ("x",)
    aggregate = ("density", metrics.sequential_density, metrics.histogram_to_csv)

    def __init__(self, dim, true_params, closed_form, oracle, rules=(), **defaults):
        self.dim = dim
        self.defaults = {"n1": 40, "n": 100, "initial_design": "uniform",
                         "true_params": true_params, "sigma2": 0.086, **defaults}
        self.closed_form = closed_form   # (model, theta) -> DesignMeasure
        self.oracle = oracle             # (model, theta) -> DesignMeasure
        self.rules = (("sigma2", lambda c: c.sigma2 is not None and c.sigma2 > 0.0,
                       "growth models need sigma2 > 0"),
                      ("x_min", lambda c: 0.0 < c.x_min < c.x_max, "need 0 < x_min < x_max"),
                      *rules)

    def initial_points(self, model, initial_design, n1, rng) -> list:
        if initial_design == "uniform":
            return [float(rng.uniform(model.x_min, model.x_max)) for _ in range(n1)]
        mid = (model.x_min + model.x_max) / 2.0   # three_point
        xi0 = designs.DesignMeasure((model.x_min, model.x_max, mid), (0.3, 0.3, 0.4))
        return [designs.draw_point(xi0, rng) for _ in range(n1)]

    def new_cell_table(self):
        return None, None

    def observe(self, x, y, counts, successes):
        return x

    def fit(self, model, xs, ys, init, counts, successes) -> fitting.FitResult:
        if init is None:
            return fitting.nls_fit(model, xs, ys)
        return fitting.nls_refit(model, xs, ys, init)

    def cumulative_info(self, model, fit, counts) -> np.ndarray:
        # the fit's J^T J holds the gradients of every data point at its
        # estimate: the same g^T g as growth.cumulative_fisher_nlr
        return fit.normal / model.sigma2

    def fisher_point(self, model, theta, x) -> np.ndarray:
        return growth.fisher_info_nlr(model, theta, x)

    def simulate(self, model, x, rng):
        return growth.simulate_response_nlr(model, model.theta_star, x, rng)

    def decode(self, x: np.ndarray) -> list:
        return x.tolist()

    def csv_points(self, x: np.ndarray) -> list[tuple]:
        return [(v,) for v in x.tolist()]


class _Logistic:
    """2x2 factorial logistic model: binary responses, exact constrained fits
    from the cell table, points stored as cell indices into ``LEVEL_POINTS``,
    and the pooled cell allocation as the study aggregate."""

    initial_designs = ("four_point",)
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

    def new_cell_table(self):
        return np.zeros(4), np.zeros(4)

    def observe(self, x, y, counts, successes) -> int:
        """Tally the trial in the cell table; the point is stored as its cell."""
        c = logistic.cell_index(x)
        counts[c] += 1.0
        successes[c] += float(y)
        return c

    def fit(self, model, xs, ys, init, counts, successes) -> fitting.FitResult:
        return self._mle(counts=counts, successes=successes)

    def cumulative_info(self, model, fit, counts) -> np.ndarray:
        return logistic.fisher_from_counts(counts, fit.theta)

    def fisher_point(self, model, theta, x) -> np.ndarray:
        return logistic.fisher_info_glm(theta, x)

    def simulate(self, model, x, rng) -> int:
        # the draw of logistic.simulate_binary at theta_star, against the
        # spec's cached cell probabilities
        return int(rng.random() < model.success_probs[logistic.cell_index(x)])

    def decode(self, x: np.ndarray) -> list[tuple]:
        return [logistic.LEVEL_POINTS[c] for c in x.tolist()]

    csv_points = decode

    def oracle(self, model, theta) -> designs.DesignMeasure:
        return designs.grid_oracle_glm(theta)


#: the table, at the simulation study's true values
MODELS: dict[str, _Growth | _Logistic] = {
    "M1": _Growth(2, (32.11, 105.65), designs.optimal_design_m1,
                  designs.grid_oracle_two_point),
    "M2": _Growth(2, (32.11, 105.65), designs.optimal_design_m2,
                  designs.grid_oracle_two_point, x0_known=86.67,
                  rules=[("x0_known", lambda c: c.x0_known is not None
                          and c.x_min < c.x0_known < c.x_max,
                          "known change point must lie inside the interval")]),
    "M3": _Growth(3, (32.11, 105.65, 86.67), designs.optimal_design_m3,
                  designs.grid_oracle_three_point),
    "GLM_C1": _Logistic((0.7125, 0.7125, 0.7125), fitting.logistic_mle_c1,
                        lambda m, theta: designs.mandal_c1(theta)),
    "GLM_C2": _Logistic((1.5, 0.5, 0.0), fitting.logistic_mle_c2,
                        lambda m, theta: designs.mandal_c2(theta)),
}
MODEL_NAMES = tuple(MODELS)


def default_model(name: str, **overrides) -> ModelSpec:
    """ModelSpec of `name` at the table's true values, sigma2 and x0_known,
    replaced by `overrides`.  ``config.validate_config`` rejects a sigma2 or
    x0_known on a model whose defaults do not hold one."""
    defaults = MODELS[name].defaults
    values = {"theta_star": defaults["true_params"], "sigma2": defaults.get("sigma2"),
              "x0_known": defaults.get("x0_known"), **overrides}
    return ModelSpec(name=name, **values)


def closed_form_design(model: ModelSpec, theta) -> designs.DesignMeasure:
    """Locally D-optimal design at `theta` for the model's family."""
    return model.family.closed_form(model, theta)


def fisher_point(model: ModelSpec, theta, x) -> np.ndarray:
    """Single-trial information matrix at design point x under `theta`."""
    return model.family.fisher_point(model, theta, x)


def simulate(model: ModelSpec, x, rng: np.random.Generator):
    """One response draw at x under the model's simulation truth."""
    return model.family.simulate(model, x, rng)


def fit(model: ModelSpec, xs, ys, init=None, *, cell_counts=None,
        cell_successes=None) -> fitting.FitResult:
    """Constrained MLE for the model; growth fits are least squares.

    The logistic fits are exact functions of the cell table and ignore
    `xs`, `ys` and `init`.  A growth fit given `init` (a sequential refit
    from the previous estimate) runs Levenberg-Marquardt from it; without
    one it runs the cold variable-projection fit (``fitting.nls_fit``).
    """
    return model.family.fit(model, xs, ys, init, cell_counts, cell_successes)


def oracle_check(model: ModelSpec) -> dict:
    """The closed form at the true values against the family's brute-force
    grid oracle: both designs, their D-criteria, and the oracle's relative
    excess, which stays below 1e-3 where the closed form is optimal."""
    theta = np.asarray(model.theta_star)
    closed = closed_form_design(model, theta)
    oracle = model.family.oracle(model, theta)
    fisher = lambda x: fisher_point(model, theta, x)
    val_closed = designs.d_criterion(closed, fisher)
    val_oracle = designs.d_criterion(oracle, fisher)
    return {"closed_form": json.loads(closed.to_json()),
            "oracle": json.loads(oracle.to_json()),
            "criterion_closed_form": val_closed,
            "criterion_oracle": val_oracle,
            "oracle_excess": val_oracle / val_closed - 1.0}
