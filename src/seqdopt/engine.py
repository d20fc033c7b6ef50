"""Two-stage sequential design engines.

Stage 1 draws a static design and fits the initial estimate.  Stage 2 then
adds one trial at a time using one of three methods:

* ``cm`` -- pick the point maximizing the determinant of the updated total
  information under the current estimate (numerical search over the
  interval; exact enumeration over the four factorial cells for the
  logistic models).
* ``pics`` -- plug the current estimate into the family's closed-form
  optimal design and draw the next point from that measure.
* ``balanced_pics`` -- same plug-in, served in randomized cycles of each
  point's apportioned copies (one each when the weights are equal).

Every step refits the constrained MLE (for the growth models, Levenberg-
Marquardt steps from the incumbent estimate, whose last Jacobian gives the
information; the logistic MLEs are exact) and rebuilds the cumulative
information under the new estimate; per-step wall time covers exactly that
compute (selection + response + refit + information rebuild).  Both
methods share this refit, so the cm/pics compute gap is the cost of cm's
criterion maximization.

The engine does not ask which model it runs: the model's entry in
``modelspec.MODELS`` draws the static design, stores each point (and
tallies the logistic cell table), and builds the information, while the
fit, the response and the closed form go through ``modelspec`` functions.
The one model-specific choice is cm's selector.  A run returns its history
as a columnar ``Trajectory`` (points, responses, estimates, the determinant
of the cumulative information at each step's estimate, step times); a
pooled replication sends back only these arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import modelspec
from .config import RunConfig
from .designs import BalancedScheduler, draw_point
from .errors import DegenerateInformation, StepFailed
from .fitting import FitResult, local_minimize
from .growth import fisher_info_nlr
from .linalg import det_sym
from .logistic import LEVEL_POINTS, XXT_CELLS, cell_index, cell_weights
from .modelspec import ModelSpec


@dataclass
class TrialRecord:
    """One trial: the chosen point, its response, and the post-refit state."""

    step: int
    x: object
    y: float
    theta_hat: np.ndarray | None
    det_cum_info: float | None
    step_ms: float


@dataclass(eq=False)
class Trajectory:
    """One replication as columns, one row per trial.

    ``x`` holds the points of the growth models, or the cell indices (into
    ``LEVEL_POINTS``) of the logistic models.  ``theta_hat`` (n x d) and
    ``det_cum_info`` are NaN before step n1, where no estimate exists yet;
    ``step_ms`` is 0 for the static stage.
    """

    model: ModelSpec
    method: str
    n1: int
    x: np.ndarray
    y: np.ndarray
    theta_hat: np.ndarray
    det_cum_info: np.ndarray
    step_ms: np.ndarray
    stage1_ms: float
    stop_index: int | None = None

    def __len__(self) -> int:
        return self.x.size

    @property
    def final_theta(self) -> np.ndarray:
        return self.theta_hat[-1]

    def total_compute_ms(self) -> float:
        return self.stage1_ms + float(self.step_ms[self.n1:].sum())

    @cached_property
    def records(self) -> list[TrialRecord]:
        """The rows as TrialRecords, built on first access and kept.

        Logistic points come back as level tuples, and the estimate and
        determinant as None before step n1.
        """
        out = []
        xs = self.model.family.decode(self.x)
        for k, (x, y, det, ms) in enumerate(zip(
                xs, self.y.tolist(), self.det_cum_info.tolist(), self.step_ms.tolist())):
            estimated = k >= self.n1 - 1
            out.append(TrialRecord(k + 1, x, y,
                                   self.theta_hat[k].copy() if estimated else None,
                                   det if estimated else None, ms))
        return out


@dataclass
class EngineState:
    """Mutable state of one sequential run (single-threaded by design).

    The per-trial history grows as parallel lists (``xs``, ``ys``,
    ``thetas``, ``dets``, ``step_ms``), one entry per finished trial;
    logistic points are kept as cell indices.  ``fit`` is the latest fit,
    whose estimate is ``theta_hat``.
    """

    model: ModelSpec
    method: str
    n1: int
    rng: np.random.Generator
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    dets: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    fit: FitResult | None = None
    theta_hat: np.ndarray | None = None
    cum_info: np.ndarray | None = None
    det_cum: float | None = None
    cell_counts: np.ndarray | None = None
    cell_successes: np.ndarray | None = None
    scheduler: BalancedScheduler | None = None
    stage1_ms: float = 0.0

    @property
    def step(self) -> int:
        return len(self.step_ms)

    def to_trajectory(self, stop_index: int | None = None) -> Trajectory:
        return Trajectory(model=self.model, method=self.method, n1=self.n1,
                          x=np.asarray(self.xs), y=np.asarray(self.ys, dtype=float),
                          theta_hat=np.array(self.thetas, dtype=float),
                          det_cum_info=np.array(self.dets, dtype=float),
                          step_ms=np.array(self.step_ms, dtype=float),
                          stage1_ms=self.stage1_ms, stop_index=stop_index)


def _refit(state: EngineState):
    """Constrained MLE on all data so far, and the information at it.

    The logistic fits are exact functions of the cell table.  For the
    growth models, stage 1 has no estimate yet and runs the cold fit; every
    later refit takes Levenberg-Marquardt steps from the incumbent estimate.
    """
    state.fit = modelspec.fit(state.model, state.xs, state.ys, init=state.theta_hat,
                              cell_counts=state.cell_counts,
                              cell_successes=state.cell_successes)
    state.theta_hat = state.fit.theta
    _rebuild_cum_info(state)


def _rebuild_cum_info(state: EngineState):
    """Cumulative information at the new estimate, and its determinant.

    The model's entry builds it from the fit: a growth fit's normal matrix
    J^T J (the Jacobian the refit last accepted) over sigma2, so the data's
    gradients are not evaluated again, or the logistic cell table's
    information at the estimate.
    """
    state.cum_info = state.model.family.cumulative_info(state.model, state.fit,
                                                        state.cell_counts)
    state.det_cum = det_sym(state.cum_info)


def _observe(state: EngineState, x):
    y = modelspec.simulate(state.model, x, state.rng)
    state.xs.append(state.model.family.observe(x, y, state.cell_counts,
                                               state.cell_successes))
    state.ys.append(y)


def run_static_stage(model: ModelSpec, method: str, n1: int, initial_design: str,
                     rng: np.random.Generator) -> EngineState:
    """Draw the static design, observe responses and fit the initial MLE."""
    state = EngineState(model=model, method=method, n1=n1, rng=rng)
    state.cell_counts, state.cell_successes = model.family.new_cell_table()

    t0 = time.perf_counter()
    for x in model.family.initial_points(model, initial_design, n1, rng):
        _observe(state, x)
    _refit(state)
    state.stage1_ms = (time.perf_counter() - t0) * 1e3

    # no estimate exists before the last static trial
    state.thetas += [np.full(model.dim, np.nan)] * (n1 - 1) + [state.theta_hat]
    state.dets += [np.nan] * (n1 - 1) + [state.det_cum]
    state.step_ms += [0.0] * n1
    return state


def _cm_select_interval(state: EngineState) -> float:
    """Numerical maximization of det(cum + I(theta, x)) over the interval.

    Uses the package's multi-start simplex descent launched from the
    interval midpoint.  The criterion surface is multimodal (one peak per
    optimal support point), so the search returns a local maximizer.
    """
    model, theta = state.model, state.theta_hat
    cum = state.cum_info

    def neg_criterion(x) -> float:
        return -det_sym(cum + fisher_info_nlr(model, theta, float(x[0])))

    x0 = np.array([(model.x_min + model.x_max) / 2.0])
    bounds = (np.array([model.x_min]), np.array([model.x_max]))
    result = local_minimize(neg_criterion, x0, bounds=bounds)
    return float(result.theta[0])


def _cm_select_cells(state: EngineState):
    """Exact argmax over the four level combinations, tried in lexicographic
    order; ``det_sym``'s rounding, not that order, decides exact ties."""
    w = cell_weights(state.theta_hat)
    best_point, best_val = None, -np.inf
    for point in sorted(LEVEL_POINTS):
        c = cell_index(point)
        val = det_sym(state.cum_info + w[c] * XXT_CELLS[c])
        if val > best_val:
            best_point, best_val = point, val
    return best_point


def cm_step(state: EngineState) -> EngineState:
    """One criterion-maximizing trial: select, observe, refit, record."""
    t0 = time.perf_counter()
    x = _cm_select_cells(state) if state.model.is_glm else _cm_select_interval(state)
    _finish_step(state, x, t0)
    return state


def pics_step(state: EngineState) -> EngineState:
    """One plug-in trial: draw from the closed form at the current estimate."""
    t0 = time.perf_counter()
    measure = modelspec.closed_form_design(state.model, state.theta_hat)
    if state.method == "balanced_pics":
        if state.scheduler is None:
            state.scheduler = BalancedScheduler(measure, state.rng)
        x = state.scheduler.next_point(measure)
    else:
        x = draw_point(measure, state.rng)
    _finish_step(state, x, t0)
    return state


def _finish_step(state: EngineState, x, t0: float):
    _observe(state, x)
    _refit(state)
    state.thetas.append(state.theta_hat)
    state.dets.append(state.det_cum)
    state.step_ms.append((time.perf_counter() - t0) * 1e3)


def stopping_check(state: EngineState, delta: float) -> bool:
    """Relative determinant improvement below `delta`?

    Never fires before step n1 + 2, so the comparison always has two
    post-static determinants available.
    """
    i = state.step
    if i < state.n1 + 2:
        return False
    det_now, det_prev = state.dets[-1], state.dets[-2]
    if det_prev <= 1e-300:
        raise DegenerateInformation(f"determinant {det_prev!r} at step {i - 1}")
    return abs(det_now - det_prev) / det_prev < delta


def run(config: RunConfig, rng: np.random.Generator | None = None) -> Trajectory:
    """Full two-stage run for one replication.

    The trajectory is a pure function of (config, rng state); passing no rng
    seeds a fresh stream from config.seed.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    model = config.to_model()
    state = run_static_stage(model, config.method, config.n1, config.initial_design, rng)
    step_fn = cm_step if config.method == "cm" else pics_step
    stop_index = None
    for i in range(config.n1 + 1, config.n + 1):
        try:
            step_fn(state)
        except Exception as exc:
            raise StepFailed(i, f"{type(exc).__name__}: {exc}") from exc
        if config.delta_stop is not None and stopping_check(state, config.delta_stop):
            stop_index = i
            break
    return state.to_trajectory(stop_index)
