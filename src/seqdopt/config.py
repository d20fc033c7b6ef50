"""Run configuration: validation, defaults and JSON parsing.

A RunConfig fully determines a simulation experiment (including all random
streams via the base seed), so every deterministic output artifact is a pure
function of it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from . import modelspec

METHODS = ("cm", "pics", "balanced_pics")
INITIAL_DESIGNS = ("uniform", "three_point", "four_point")

_DEFAULT_SIZES = {"nlr": (40, 100), "glm": (80, 800)}


@dataclass(frozen=True)
class RunConfig:
    model: str
    method: str = "pics"
    n1: int = 40
    n: int = 100
    initial_design: str = "uniform"
    true_params: tuple = ()
    sigma2: float | None = None
    x_min: float = 0.5
    x_max: float = 210.0
    x0_known: float | None = None
    seed: int = 0
    replications: int = 1
    delta_stop: float | None = None

    def to_model(self) -> modelspec.ModelSpec:
        kwargs = dict(name=self.model, theta_star=tuple(self.true_params),
                      x_min=self.x_min, x_max=self.x_max)
        if not self.model.startswith("GLM"):
            kwargs["sigma2"] = self.sigma2
        if self.model == "M2":
            kwargs["x0_known"] = self.x0_known
        return modelspec.ModelSpec(**kwargs)

    def as_dict(self) -> dict:
        return asdict(self)


def _fail(name: str, message: str):
    raise ValueError(f"config field '{name}': {message}")


def validate_config(config: RunConfig) -> RunConfig:
    """Check cross-field consistency; raises ValueError naming the field."""
    if config.model not in modelspec.MODEL_NAMES:
        _fail("model", f"must be one of {modelspec.MODEL_NAMES}")
    if config.method not in METHODS:
        _fail("method", f"must be one of {METHODS}")
    if config.initial_design not in INITIAL_DESIGNS:
        _fail("initial_design", f"must be one of {INITIAL_DESIGNS}")

    is_glm = config.model.startswith("GLM")
    if is_glm:
        if config.method == "balanced_pics":
            # the scheduler serves weights on a 1/12 grid; the logistic
            # closed-form weights are irrational
            _fail("method", "balanced_pics is not available for the logistic models")
        if config.initial_design != "four_point":
            _fail("initial_design", "logistic models use the four_point design")
        if config.n1 % 4 != 0:
            _fail("n1", f"four_point design needs 4 | n1, got {config.n1}")
    else:
        if config.initial_design == "four_point":
            _fail("initial_design", "four_point only applies to logistic models")
        if config.sigma2 is None or config.sigma2 <= 0.0:
            _fail("sigma2", "growth models need sigma2 > 0")
        if not 0.0 < config.x_min < config.x_max:
            _fail("x_min", "need 0 < x_min < x_max")

    try:
        model = config.to_model()
    except ValueError as exc:
        _fail("true_params", str(exc))

    if not is_glm and any(v <= 0.0 for v in config.true_params[:2]):
        _fail("true_params", "alpha1 and alpha2 must be positive")
    if config.model == "M3":
        if not config.x_min < config.true_params[2] < config.x_max:
            _fail("true_params", "change point must lie inside the interval")
    if config.model == "M2":
        if config.x0_known is None or not config.x_min < config.x0_known < config.x_max:
            _fail("x0_known", "known change point must lie inside the interval")
    if config.model == "GLM_C1":
        b = config.true_params
        if abs(b[0] - b[1]) > 1e-9 or abs(b[0] - b[2]) > 1e-9 or abs(b[0]) >= 0.8314:
            _fail("true_params", "needs b0 = b1 = b2 with |b0| < 0.8314")
    if config.model == "GLM_C2":
        b = config.true_params
        if abs(b[2]) > 1e-9 or b[0] * b[1] <= 0.0:
            _fail("true_params", "needs b2 = 0 and b0 * b1 > 0")

    if config.n1 < model.dim + 2:
        _fail("n1", f"static stage needs at least dim + 2 = {model.dim + 2} trials")
    if config.n1 >= config.n:
        _fail("n1", f"need n1 < n, got n1={config.n1}, n={config.n}")
    if config.replications < 1:
        _fail("replications", "need at least one replication")
    if config.delta_stop is not None and config.delta_stop < 0.0:
        _fail("delta_stop", "threshold must be nonnegative")
    return config


def parse_config(path: str | None = None, **overrides) -> RunConfig:
    """Build a validated RunConfig from a JSON file and/or keyword overrides.

    The JSON document is a flat object whose keys are RunConfig field names;
    explicit keyword arguments win over file values, and anything left unset
    falls back to the model family's defaults.
    """
    values: dict = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        values.update(doc)
    values.update({k: v for k, v in overrides.items() if v is not None})

    model = values.get("model")
    if model is None:
        _fail("model", "is required")
    if model not in modelspec.MODEL_NAMES:
        _fail("model", f"must be one of {modelspec.MODEL_NAMES}")
    is_glm = model.startswith("GLM")

    family = "glm" if is_glm else "nlr"
    values.setdefault("n1", _DEFAULT_SIZES[family][0])
    values.setdefault("n", _DEFAULT_SIZES[family][1])
    values.setdefault("initial_design", "four_point" if is_glm else "uniform")
    values.setdefault("true_params", modelspec.DEFAULT_TRUE_PARAMS[model])
    if not is_glm:
        values.setdefault("sigma2", modelspec.DEFAULT_SIGMA2)
    if model == "M2":
        values.setdefault("x0_known", modelspec.DEFAULT_X0_KNOWN)

    values["true_params"] = tuple(values["true_params"])
    unknown = set(values) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return validate_config(RunConfig(**values))
