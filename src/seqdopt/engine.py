"""Two-stage sequential design engines.

Stage 1 draws a static design and fits the initial estimate.  Stage 2 then
adds one trial at a time using one of three methods:

* ``cm`` -- pick the point maximizing the determinant of the updated total
  information under the current estimate (exact enumeration over the
  cells when the run keeps a cell table, as the logistic models do;
  numerical search over the interval otherwise).
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

The engine does not ask which model it runs, and holds no family's data:
the model's entry in ``modelspec.MODELS`` draws the static design, makes
the run's cell table (none for a growth model), stores each point (and
tallies it in the table), builds the information, and offers cm its
candidate cells, while the fit, the response and the closed form go
through ``modelspec`` functions.  cm enumerates the cells when the run
keeps a table.  A run returns its history as a columnar ``Trajectory``
(points, responses, estimates, the determinant of the cumulative
information at each step's estimate, step times, the static stage's at
step n1) and the last information; a pooled replication sends only these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import modelspec
from .config import RunConfig
from .designs import BalancedScheduler, draw_point
from .errors import StepFailed
from .fitting import FitResult, local_minimize
from .linalg import det_sym
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
    ``det_cum_info`` are NaN before step n1, where no estimate exists yet,
    and ``step_ms`` 0: its row n1 holds the whole static stage's compute.
    ``final_info`` is the last row's cumulative information, whose
    determinant ends ``det_cum_info``.  ``model`` is the run's config.
    """

    model: ModelSpec
    n1: int
    x: np.ndarray
    y: np.ndarray
    theta_hat: np.ndarray
    det_cum_info: np.ndarray
    step_ms: np.ndarray
    final_info: np.ndarray
    stop_index: int | None = None

    def __len__(self) -> int:
        return self.x.size

    @property
    def final_theta(self) -> np.ndarray:
        return self.theta_hat[-1]

    def total_compute_ms(self) -> float:
        return float(self.step_ms.sum())

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
    and its estimate ``fit.theta`` is the one copy of the current estimate
    (``thetas[-1]`` is the same array); ``dets[-1]`` is the determinant of
    ``cum_info``, the cumulative information at it.  ``table`` is the cell
    table the model's entry made (None for a growth model), and
    ``scheduler`` serves a ``balanced_pics`` run's points.
    """

    model: RunConfig
    rng: np.random.Generator
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    dets: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    fit: FitResult | None = None
    cum_info: np.ndarray | None = None
    table: list | None = None
    scheduler: BalancedScheduler | None = None

    @property
    def step(self) -> int:
        return len(self.step_ms)

    def to_trajectory(self, stop_index: int | None) -> Trajectory:
        return Trajectory(model=self.model, n1=self.model.n1,
                          x=np.asarray(self.xs), y=np.asarray(self.ys, dtype=float),
                          theta_hat=np.array(self.thetas, dtype=float),
                          det_cum_info=np.array(self.dets, dtype=float),
                          step_ms=np.array(self.step_ms, dtype=float),
                          final_info=self.cum_info,
                          stop_index=stop_index)


def _refit(state: EngineState):
    """Constrained MLE on all data so far, and the information at it;
    records the estimate.

    The logistic fits are exact functions of the cell table.  For the
    growth models, stage 1 has no estimate yet and runs the cold fit; every
    later refit takes Levenberg-Marquardt steps from the incumbent estimate.
    """
    init = None if state.fit is None else state.fit.theta
    state.fit = modelspec.fit(state.model, state.xs, state.ys, init, state.table)
    state.thetas.append(state.fit.theta)
    _rebuild_cum_info(state)


def _rebuild_cum_info(state: EngineState):
    """Cumulative information at the new estimate; records its determinant.

    The model's entry builds it from the fit: a growth fit's normal matrix
    J^T J (the Jacobian the refit last accepted) over sigma2, so the data's
    gradients are not evaluated again, or the logistic cell table's
    information at the estimate.
    """
    state.cum_info = state.model.family.cumulative_info(state.model, state.fit,
                                                        state.table)
    state.dets.append(det_sym(state.cum_info))


def _observe(state: EngineState, x):
    y = modelspec.simulate(state.model, x, state.rng)
    state.xs.append(state.model.family.observe(x, y, state.table))
    state.ys.append(y)


def run_static_stage(config: RunConfig, rng: np.random.Generator) -> EngineState:
    """Draw the config's static design, observe responses and fit the initial MLE."""
    n1 = config.n1
    scheduler = BalancedScheduler(rng) if config.method == "balanced_pics" else None
    # no estimate exists before the last static trial
    state = EngineState(model=config, rng=rng,
                        thetas=[np.full(config.dim, np.nan)] * (n1 - 1),
                        dets=[np.nan] * (n1 - 1), step_ms=[0.0] * (n1 - 1),
                        table=config.family.new_table(), scheduler=scheduler)
    t0 = time.perf_counter()
    for x in config.family.initial_points(config, config.initial_design, n1, rng):
        _observe(state, x)
    _refit(state)
    state.step_ms.append((time.perf_counter() - t0) * 1e3)
    return state


def _cm_select_interval(state: EngineState) -> float:
    """Numerical maximization of det(cum + I(theta, x)) over the interval.

    Uses the package's multi-start simplex descent launched from the
    interval midpoint.  The criterion surface is multimodal (one peak per
    optimal support point), so the search returns a local maximizer.
    """
    model, theta = state.model, state.fit.theta
    cum, fisher_point = state.cum_info, model.family.fisher_point

    def neg_criterion(x) -> float:
        return -det_sym(cum + fisher_point(model, theta, float(x[0])))

    x0 = np.array([(model.x_min + model.x_max) / 2.0])
    bounds = (np.array([model.x_min]), np.array([model.x_max]))
    result = local_minimize(neg_criterion, x0, bounds=bounds)
    return float(result.theta[0])


def _cm_select_cells(state: EngineState):
    """Exact argmax over the entry's candidate cells, tried in lexicographic
    order of the level pairs; ``det_sym``'s rounding, not that order,
    decides exact ties."""
    best_point, best_val = None, -np.inf
    for point, info in state.model.family.cm_candidates(state.fit.theta):
        val = det_sym(state.cum_info + info)
        if val > best_val:
            best_point, best_val = point, val
    return best_point


def cm_step(state: EngineState) -> EngineState:
    """One criterion-maximizing trial: select, observe, refit, record."""
    t0 = time.perf_counter()
    x = (_cm_select_interval if state.table is None else _cm_select_cells)(state)
    _finish_step(state, x, t0)
    return state


def pics_step(state: EngineState) -> EngineState:
    """One plug-in trial: draw from the closed form at the current estimate."""
    t0 = time.perf_counter()
    measure = modelspec.closed_form_design(state.model, state.fit.theta)
    if state.scheduler is None:
        x = draw_point(measure, state.rng)
    else:
        x = state.scheduler.next_point(measure)
    _finish_step(state, x, t0)
    return state


def _finish_step(state: EngineState, x, t0: float):
    _observe(state, x)
    _refit(state)
    state.step_ms.append((time.perf_counter() - t0) * 1e3)


def stopping_check(state: EngineState, delta: float) -> bool:
    """Relative determinant improvement below `delta`?

    Never fires before step n1 + 2, so the comparison always has two
    post-static determinants available, nor while the previous determinant
    is not positive, as no relative improvement over it exists.
    """
    if state.step < state.model.n1 + 2:
        return False
    det_now, det_prev = state.dets[-1], state.dets[-2]
    return det_prev > 0.0 and abs(det_now - det_prev) / det_prev < delta


def run(config: RunConfig, rng: np.random.Generator | None = None) -> Trajectory:
    """Full two-stage run for one replication.

    The trajectory is a pure function of (config, rng state); passing no rng
    seeds a fresh stream from config.seed.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = run_static_stage(config, rng)
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
