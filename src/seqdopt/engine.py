"""Two-stage sequential design engines.

Stage 1 draws a static design and fits the initial estimate.  Stage 2 then
adds one trial at a time using one of three methods:

* ``cm`` -- pick the point maximizing the determinant of the updated total
  information under the current estimate (numerical search over the
  interval; exact enumeration over the four factorial cells for the
  logistic models).
* ``pics`` -- plug the current estimate into the family's closed-form
  optimal design and draw the next point from that measure.
* ``balanced_pics`` -- same plug-in, but served in randomized cycles that
  cover the (weight-expanded) support exactly once per cycle.

Every step refits the constrained MLE (for the growth models, Levenberg-
Marquardt steps from the incumbent estimate; the logistic MLEs are exact)
and rebuilds the cumulative information under the new estimate; per-step
wall time covers exactly that compute (selection + response + refit +
information rebuild).  Both methods share this refit, so the cm/pics
compute gap is the cost of cm's criterion maximization.

A run keeps its history as parallel per-trial lists and returns it as a
columnar ``Trajectory``: the points (cell indices for the logistic
models), responses, estimates, the determinant of the cumulative
information at each step's estimate, and step times.  These arrays are
what a pooled replication sends back; ``Trajectory.records`` rebuilds
per-trial objects only when asked for.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import modelspec
from .config import RunConfig
from .designs import BalancedScheduler, DesignMeasure, draw_point
from .errors import ConstraintViolated, DegenerateDesign, DegenerateInformation, StepFailed
from .fitting import FitResult, local_minimize
from .growth import cumulative_fisher_nlr, fisher_info_nlr
from .linalg import det_sym
from .logistic import LEVEL_POINTS, XXT_CELLS, cell_index, cell_weights, fisher_from_counts
from .modelspec import ModelSpec

logger = logging.getLogger(__name__)

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

    def stage2_xs(self) -> np.ndarray:
        return self.x[self.n1:]

    def total_compute_ms(self) -> float:
        return self.stage1_ms + float(self.step_ms[self.n1:].sum())

    @cached_property
    def records(self) -> list[TrialRecord]:
        """The rows as TrialRecords, built on first access and kept.

        Logistic points come back as level tuples, and the estimate and
        determinant as None before step n1.
        """
        if self.model.is_glm:
            xs = [LEVEL_POINTS[c] for c in self.x.tolist()]
        else:
            xs = self.x.tolist()
        out = []
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
    logistic points are kept as cell indices.
    """

    model: ModelSpec
    method: str
    n1: int
    n: int
    rng: np.random.Generator
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    dets: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
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


def _initial_points(model: ModelSpec, initial_design: str, n1: int,
                    rng: np.random.Generator) -> list:
    if initial_design == "uniform":
        return [float(rng.uniform(model.x_min, model.x_max)) for _ in range(n1)]
    if initial_design == "three_point":
        mid = (model.x_min + model.x_max) / 2.0
        xi0 = DesignMeasure((model.x_min, model.x_max, mid), (0.3, 0.3, 0.4))
        return [draw_point(xi0, rng) for _ in range(n1)]
    if initial_design == "four_point":
        if n1 % 4 != 0:
            raise ValueError(f"four_point design needs 4 | n1, got {n1}")
        cells = np.repeat(np.arange(4), n1 // 4)
        rng.shuffle(cells)
        return [LEVEL_POINTS[c] for c in cells]
    raise ValueError(f"unknown initial design {initial_design!r}")


def _refit(state: EngineState) -> FitResult:
    """Constrained MLE on all data so far.

    The logistic fits are exact functions of the cell table.  For the
    growth models, stage 1 has no estimate yet and runs the cold fit; every
    later refit takes Levenberg-Marquardt steps from the incumbent estimate.
    """
    if state.model.is_glm:
        return modelspec.fit(state.model, None, None,
                             cell_counts=state.cell_counts,
                             cell_successes=state.cell_successes)
    return modelspec.fit(state.model, np.asarray(state.xs), np.asarray(state.ys),
                         init=state.theta_hat)


def _rebuild_cum_info(state: EngineState):
    if state.model.is_glm:
        state.cum_info = fisher_from_counts(state.cell_counts, state.theta_hat)
    else:
        state.cum_info = cumulative_fisher_nlr(
            state.model.nlr_kind, state.theta_hat, state.xs, state.model.sigma2)
    state.det_cum = det_sym(state.cum_info)


def _observe(state: EngineState, x):
    y = modelspec.simulate(state.model, x, state.rng)
    if state.model.is_glm:
        c = cell_index(x)
        state.cell_counts[c] += 1.0
        state.cell_successes[c] += float(y)
        x = c
    state.xs.append(x)
    state.ys.append(y)


def run_static_stage(model: ModelSpec, method: str, n1: int, n: int,
                     initial_design: str, rng: np.random.Generator) -> EngineState:
    """Draw the static design, observe responses and fit the initial MLE."""
    state = EngineState(model=model, method=method, n1=n1, n=n, rng=rng)
    if model.is_glm:
        state.cell_counts = np.zeros(4)
        state.cell_successes = np.zeros(4)

    t0 = time.perf_counter()
    points = _initial_points(model, initial_design, n1, rng)
    for x in points:
        _observe(state, x)

    result = _refit(state)
    state.theta_hat = result.theta
    _rebuild_cum_info(state)
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
    kind, sigma2, cum = model.nlr_kind, model.sigma2, state.cum_info

    def neg_criterion(x) -> float:
        return -det_sym(cum + fisher_info_nlr(kind, theta, float(x[0]), sigma2))

    x0 = np.array([(model.x_min + model.x_max) / 2.0])
    bounds = (np.array([model.x_min]), np.array([model.x_max]))
    result = local_minimize(neg_criterion, x0, bounds=bounds)
    return float(result.theta[0])


def _cm_select_cells(state: EngineState):
    """Exact argmax over the four level combinations (lexicographic ties)."""
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


def _plugin_measure(state: EngineState) -> DesignMeasure:
    theta = state.theta_hat
    try:
        return modelspec.closed_form_design(state.model, theta)
    except (ConstraintViolated, DegenerateDesign) as exc:
        projected = modelspec.project_admissible(state.model, theta)
        logger.warning("step %d: estimate %s inadmissible for the closed form "
                       "(%s); projected to %s", state.step + 1,
                       np.array2string(np.asarray(theta), precision=6), exc,
                       np.array2string(projected, precision=6))
        return modelspec.closed_form_design(state.model, projected)


def pics_step(state: EngineState) -> EngineState:
    """One plug-in trial: draw from the closed form at the current estimate."""
    t0 = time.perf_counter()
    measure = _plugin_measure(state)
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
    result = _refit(state)
    state.theta_hat = result.theta
    _rebuild_cum_info(state)
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
    state = run_static_stage(model, config.method, config.n1, config.n,
                             config.initial_design, rng)
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
