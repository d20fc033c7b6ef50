"""Run configuration: defaults, checks and JSON parsing.

A RunConfig fully determines a simulation experiment (including all random
streams via the base seed), so every deterministic output artifact is a pure
function of it.  It is the run's ``modelspec.ModelSpec`` too: the model
fields are the spec's, and the model functions take the config itself.  It
is complete and checked when it is built: a field left ``None`` takes its
model's default from the model table (``modelspec.MODELS``), and the table's
per-model rules and the rules every run shares are checked then, a violation
raising a ConfigError naming the field.  ``dataclasses.replace`` builds a
new config, so it is checked too.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

from . import modelspec
from .errors import ConfigError, SeqDoptError
from .linalg import det_sym

METHODS = ("cm", "pics", "balanced_pics")

#: the model's fields a config takes only when its model's defaults hold them
OPTIONAL_FIELDS = ("sigma2", "x0_known", "x_min", "x_max")


def _fail(name: str, message: str):
    raise ConfigError(f"config field '{name}': {message}")


def _real(name: str, value, finite: bool = True):
    """The number rule of the real fields and of each true value: a real
    number, not a bool, and finite if `finite` (an int too large for a
    double is not).  A numpy number is stored as a Python float, which
    summary.json can hold; a Python int or float is kept as given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(name, f"must be a real number, got {value!r}")
    try:
        inside = not finite or math.isfinite(value)
    except OverflowError:   # an int too large for a double
        inside = False
    if not inside:
        _fail(name, f"must be finite, got {value!r}")
    return value if type(value) in (int, float) else float(value)


@dataclass(frozen=True)
class RunConfig(modelspec.ModelSpec):
    """One run: its model (the ``ModelSpec`` fields) and how it is run; a
    field left None takes its model's default from the table."""

    method: str = "pics"
    n1: int | None = None
    n: int | None = None
    initial_design: str | None = None
    seed: int = 0
    replications: int = 1
    delta_stop: float | None = None

    def __post_init__(self):
        if self.model not in modelspec.MODELS:
            _fail("model", f"must be one of {modelspec.MODEL_NAMES}")
        family = modelspec.MODELS[self.model]
        for name, value in family.defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        try:
            params = tuple(self.true_params)
        except TypeError:
            _fail("true_params", f"must be a sequence of real numbers, got {self.true_params!r}")
        object.__setattr__(self, "true_params", tuple(_real("true_params", v) for v in params))
        # counts are stored as Python ints, which summary.json holds
        for name in ("n1", "n", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                _fail(name, f"must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("sigma2", "x_min", "x_max", "x0_known", "delta_stop"):
            value = getattr(self, name)
            if value is not None:   # delta_stop may be +inf: it stops at the first check
                object.__setattr__(self, name, _real(name, value, finite=name != "delta_stop"))

        if self.method not in METHODS:
            _fail("method", f"must be one of {METHODS}")
        for name in OPTIONAL_FIELDS:
            if name not in family.defaults and getattr(self, name) is not None:
                _fail(name, f"{self.model} takes no {name}")
        if self.initial_design not in family.initial_designs:
            _fail("initial_design", f"{self.model} takes one of {family.initial_designs}")
        if len(self.true_params) != family.dim:
            _fail("true_params", f"{self.model} takes {family.dim} parameters")
        for name, holds, message in family.rules:
            if not holds(self):
                _fail(name, message.format(c=self))
        try:  # the admissible true values are those the closed form takes
            i_star = self.i_star
        except (ValueError, SeqDoptError) as exc:
            _fail("true_params", f"no closed-form design at the true values: {exc}")

        if self.n1 < family.dim + 2:
            _fail("n1", f"static stage needs at least dim + 2 = {family.dim + 2} trials")
        if self.n1 >= self.n:
            _fail("n1", f"need n1 < n, got n1={self.n1}, n={self.n}")
        if self.replications < 1:
            _fail("replications", "need at least one replication")
        if self.seed < 0:
            _fail("seed", f"must be nonnegative, got {self.seed}")
        if self.delta_stop is not None and not self.delta_stop >= 0.0:
            _fail("delta_stop", f"threshold must be a nonnegative number, got {self.delta_stop!r}")
        # the run records determinants up to about det(n I*); its efficiency divides by det(I*)
        dets = det_sym(i_star), det_sym(self.n * i_star)
        if not all(0.0 < d < math.inf for d in dets):
            _fail(family.info_scale, "the information I* at the true optimal design is "
                  f"degenerate: det(I*) = {dets[0]!r}, det(n I*) = {dets[1]!r}")


def parse_config(path: str | None = None, **overrides) -> RunConfig:
    """Build a RunConfig from a JSON file and/or keyword overrides.

    The JSON document is a flat object whose keys are RunConfig field names;
    explicit keyword arguments that are not None win over file values.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:   # missing, unreadable or not JSON
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(doc)
    values.update({k: v for k, v in overrides.items() if v is not None})

    if values.get("model") is None:
        _fail("model", f"is required, one of {modelspec.MODEL_NAMES}")
    unknown = set(values) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**values)
