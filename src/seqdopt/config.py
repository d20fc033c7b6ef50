"""Run configuration: validation, defaults and JSON parsing.

A RunConfig fully determines a simulation experiment (including all random
streams via the base seed), so every deterministic output artifact is a pure
function of it.  The per-model defaults and rules come from the model table
(``modelspec.MODELS``); this module adds the rules every run shares, and
reports a violation as a ConfigError naming the field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import modelspec
from .errors import ConfigError, SeqDoptError

METHODS = ("cm", "pics", "balanced_pics")


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
        return modelspec.default_model(self.model, theta_star=tuple(self.true_params),
                                       sigma2=self.sigma2, x_min=self.x_min,
                                       x_max=self.x_max, x0_known=self.x0_known)


def _fail(name: str, message: str):
    raise ConfigError(f"config field '{name}': {message}")


def validate_config(config: RunConfig) -> RunConfig:
    """Check the config against its model's rules in the model table and the
    cross-field rules of every run; raises ConfigError naming the field."""
    if config.model not in modelspec.MODELS:
        _fail("model", f"must be one of {modelspec.MODEL_NAMES}")
    if config.method not in METHODS:
        _fail("method", f"must be one of {METHODS}")
    family = modelspec.MODELS[config.model]
    for name in ("sigma2", "x0_known"):   # the optional fields a model may not take
        if getattr(config, name) is not None and name not in family.defaults:
            _fail(name, f"{config.model} takes no {name}")
    if config.initial_design not in family.initial_designs:
        _fail("initial_design", f"{config.model} takes one of {family.initial_designs}")
    if len(config.true_params) != family.dim:
        _fail("true_params", f"{config.model} takes {family.dim} parameters")
    for name, holds, message in family.rules:
        if not holds(config):
            _fail(name, message.format(c=config))
    try:  # the admissible true values are those the closed form takes
        modelspec.closed_form_design(config.to_model(), config.true_params)
    except (ValueError, SeqDoptError) as exc:
        _fail("true_params", f"no closed-form design at the true values: {exc}")

    if config.n1 < family.dim + 2:
        _fail("n1", f"static stage needs at least dim + 2 = {family.dim + 2} trials")
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
    falls back to the model's defaults in the model table.
    """
    values: dict = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(doc)
    values.update({k: v for k, v in overrides.items() if v is not None})

    if values.get("model") not in modelspec.MODELS:
        _fail("model", f"is required, one of {modelspec.MODEL_NAMES}")
    for name, value in modelspec.MODELS[values["model"]].defaults.items():
        values.setdefault(name, value)

    values["true_params"] = tuple(values["true_params"])
    unknown = set(values) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return validate_config(RunConfig(**values))
