"""Closed-form locally D-optimal designs and sampling machinery.

A design is a finite-support probability measure on the experiment space.
For each of the five model families there is a closed-form optimal design
as a function of the parameter vector; brute-force grid oracles are
provided to validate those closed forms and are used only in tests and the
``oracle`` CLI subcommand.  The growth closed forms and grid oracles take
``(model, theta)``, the signature of the model table's closed form, and
read the design interval and M2's known change point from the
``ModelSpec``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConstraintViolated, DegenerateDesign
from .growth import growth_grad
from .linalg import det_sym, det_sym_batch
from .logistic import (LEVEL_POINTS, XXT_CELLS, cell_weights, log_weight_at_eta,
                       weight_at_eta)

if TYPE_CHECKING:
    from .modelspec import ModelSpec

#: admissibility bound on the common coefficient in the equal-beta logistic case
MANDAL_C0 = 0.8314

#: longest cycle the balanced scheduler apportions a design to
MAX_CYCLE = 20

#: distinct-support guard used by the closed forms
_COINCIDENT_TOL = 1e-9


@dataclass(frozen=True)
class DesignMeasure:
    """Finite-support probability measure over the experiment space."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        # plain-Python validation: this constructor sits on the per-step
        # plug-in path, where numpy round-trips would dominate
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights length mismatch")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support points must be distinct")

    def to_json(self) -> str:
        return json.dumps(
            {"support": [list(p) if isinstance(p, tuple) else p for p in self.support],
             "weights": list(self.weights)}
        )


def d_criterion(measure: DesignMeasure, fisher_fn) -> float:
    """det of the weighted average information sum_i w_i * I(x_i)."""
    total = sum(w * fisher_fn(x) for x, w in zip(measure.support, measure.weights))
    return det_sym(total)


# ---------------------------------------------------------------------------
# closed forms, nonlinear growth models
# ---------------------------------------------------------------------------

def optimal_design_m1(model: ModelSpec, theta) -> DesignMeasure:
    """Balanced two-point design {max(a2*xmax/(a2+xmax), xmin), xmax}."""
    a1, a2 = float(theta[0]), float(theta[1])
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("alpha1 and alpha2 must be positive")
    x1 = max(a2 * model.x_max / (a2 + model.x_max), model.x_min)
    x2 = model.x_max
    if abs(x1 - x2) < _COINCIDENT_TOL:
        raise DegenerateDesign("two-point support collapsed")
    return DesignMeasure((x1, x2), (0.5, 0.5))


def m2_tau(alpha2: float, x0: float, x_max: float) -> float:
    """Lower support point of the known-change-point design (before clamping)."""
    inner = (((x_max - 2.0 * x0) * x0 - alpha2 * (x_max - x0))
             / (x0 * (x0**2 + alpha2 * (x_max - x0))))
    denom = 1.0 - alpha2 * inner
    if denom <= 0.0:
        raise DegenerateDesign(f"tau denominator {denom:.3e} <= 0")
    return alpha2 / denom


def optimal_design_m2(model: ModelSpec, theta) -> DesignMeasure:
    """Balanced two-point design {max(tau, xmin), xmax} for the known change point."""
    a2 = float(theta[1])
    if float(theta[0]) <= 0.0 or a2 <= 0.0:
        raise ValueError("alpha1 and alpha2 must be positive")
    tau = m2_tau(a2, float(model.x0_known), model.x_max)
    x1 = max(tau, model.x_min)
    x2 = model.x_max
    if abs(x1 - x2) < _COINCIDENT_TOL or x1 > x2:
        raise DegenerateDesign("two-point support collapsed")
    return DesignMeasure((x1, x2), (0.5, 0.5))


def optimal_design_m3(model: ModelSpec, theta) -> DesignMeasure:
    """Balanced three-point design {max(a2*x0/(a2+x0), xmin), x0, xmax}."""
    a1, a2, x0 = (float(v) for v in theta)
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("alpha1 and alpha2 must be positive")
    if not model.x_min < x0 < model.x_max:
        raise ValueError(f"x0={x0} outside ({model.x_min}, {model.x_max})")
    x1 = max(a2 * x0 / (a2 + x0), model.x_min)
    pts = (x1, x0, model.x_max)
    if min(abs(p - q) for p, q in itertools.combinations(pts, 2)) < _COINCIDENT_TOL:
        raise DegenerateDesign("three-point support has coincident points")
    third = 1.0 / 3.0
    return DesignMeasure(pts, (third, third, third))


# ---------------------------------------------------------------------------
# closed forms, 2x2 factorial logistic model
# ---------------------------------------------------------------------------

def mandal_c1(beta) -> DesignMeasure:
    """Optimal cell proportions when b0 = b1 = b2 with |b0| < 0.8314."""
    b0, b1, b2 = (float(v) for v in beta)
    if abs(b0 - b1) > 1e-9 or abs(b0 - b2) > 1e-9:
        raise ConstraintViolated("requires beta0 = beta1 = beta2")
    if abs(b0) >= MANDAL_C0:
        raise ConstraintViolated(f"requires |beta0| < {MANDAL_C0}, got {b0!r}")
    # only two distinct cells: eta = 3*b at (+1,+1), eta = +/-b elsewhere
    v11 = 1.0 / weight_at_eta(3.0 * b0)
    v = 1.0 / weight_at_eta(b0)
    p11 = (3.0 * v - v11) / (9.0 * v - v11)
    rest = 2.0 * v / (9.0 * v - v11)
    return DesignMeasure(LEVEL_POINTS, (p11, rest, rest, rest))


def mandal_c2(beta) -> DesignMeasure:
    """Optimal cell proportions when b2 = 0 and b0*b1 > 0.

    The x1 = +1 rows share the weight w(b0 + b1) and the x1 = -1 rows share
    w(b0 - b1).  The proportions depend only on their ratio
    r = w(b0 + b1) / w(b0 - b1), which lies in [0, 1] when b0*b1 > 0 and is
    formed from log-weights so that extreme estimates cannot overflow:
    p1 = 1 / (2 * (2 - r + sqrt(1 - r + r^2))) on the x1 = +1 rows and
    1/2 - p1 on the others, running from (1/6, 1/3) as r -> 0 to uniform
    as r -> 1.
    """
    b0, b1, b2 = (float(v) for v in beta)
    if abs(b2) > 1e-9:
        raise ConstraintViolated("requires beta2 = 0")
    if b0 * b1 <= 0.0:
        raise ConstraintViolated("requires beta0 * beta1 > 0")
    r = math.exp(min(log_weight_at_eta(b0 + b1) - log_weight_at_eta(b0 - b1), 0.0))
    p1 = 0.5 / (2.0 - r + math.sqrt(1.0 - r + r * r))
    p2 = 0.5 - p1
    return DesignMeasure(LEVEL_POINTS, (p1, p1, p2, p2))


# ---------------------------------------------------------------------------
# sampling from a design measure
# ---------------------------------------------------------------------------

def draw_point(measure: DesignMeasure, rng: np.random.Generator):
    """One PPS draw: support[i] with probability weights[i] (inverse CDF)."""
    u = rng.random()
    acc = 0.0
    for point, w in zip(measure.support, measure.weights):
        acc += w
        if u < acc:
            return point
    return measure.support[-1]


def balanced_cycle_counts(weights) -> list[int]:
    """Per-point copies in one balanced cycle: the efficient apportionment
    (Pukelsheim & Rieder, Biometrika 1992) of the weights.

    For the l points of positive weight and each cycle length N from l to
    MAX_CYCLE: n_i = ceil((N - l/2) w_i), then while sum n_i > N a copy
    comes off the largest (n_i - 1)/w_i, and while sum n_i < N one goes to
    the smallest n_i/w_i.  The N with the smallest max |n_i/N - w_i| wins,
    the shortest on ties, and an exact fit ends the search.  Points of zero
    weight get no copies.
    """
    w = [v for v in weights if v > 0.0]
    ell = len(w)
    # at N = l the rule gives every point one copy
    best, best_err = [1] * ell, max([abs(1.0 / ell - wi) for wi in w])
    n_cycle = ell
    while best_err > 0.0 and n_cycle < MAX_CYCLE:
        n_cycle += 1
        counts = [math.ceil((n_cycle - ell / 2) * wi) for wi in w]
        while sum(counts) > n_cycle:
            counts[max(range(ell), key=lambda i: (counts[i] - 1) / w[i])] -= 1
        while sum(counts) < n_cycle:
            counts[min(range(ell), key=lambda i: counts[i] / w[i])] += 1
        err = max([abs(c / n_cycle - wi) for c, wi in zip(counts, w)])
        if err < best_err:
            best, best_err = counts, err
    if ell == len(weights):
        return best
    copies = iter(best)
    return [next(copies) if v > 0.0 else 0 for v in weights]


class BalancedScheduler:
    """Serves support points in cycles: each cycle serves every point its
    ``balanced_cycle_counts`` copies, in a fresh random order, so a cycle
    of an equal-weight measure covers the support exactly once.

    The measure backing a cycle is frozen for the whole cycle; a measure from
    an updated estimate only takes effect at the next cycle boundary.
    """

    def __init__(self, measure: DesignMeasure, rng: np.random.Generator):
        self._rng = rng
        self._start_cycle(measure)

    def _start_cycle(self, measure: DesignMeasure):
        counts = balanced_cycle_counts(measure.weights)
        order = np.repeat(np.arange(len(counts)), counts)
        self._rng.shuffle(order)
        self._support = measure.support
        self._order = order
        self._pos = 0

    def next_point(self, measure: DesignMeasure):
        """Next point of the current cycle, rebuilding from `measure` when
        the previous cycle is exhausted."""
        if self._pos == len(self._order):
            self._start_cycle(measure)
        point = self._support[self._order[self._pos]]
        self._pos += 1
        return point


# ---------------------------------------------------------------------------
# brute-force grid oracles (test/validation only)
# ---------------------------------------------------------------------------

def _pair_best(grads: np.ndarray, chunk: int = 512) -> tuple[int, int]:
    """Indices maximizing |g_i x g_j| over all pairs (2-d gradients)."""
    n = len(grads)
    best_val, best = -1.0, (0, 1)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        cross = np.abs(
            grads[lo:hi, None, 0] * grads[None, :, 1]
            - grads[lo:hi, None, 1] * grads[None, :, 0]
        )
        k = int(np.argmax(cross))
        i, j = divmod(k, n)
        if cross[i, j] > best_val:
            best_val, best = float(cross[i, j]), (lo + i, j)
    return best


def grid_oracle_two_point(model: ModelSpec, theta, step: float = 0.05) -> DesignMeasure:
    """Exhaustive search over balanced two-point designs on a uniform grid.

    The balanced two-point D-criterion for rank-one informations reduces to
    the squared cross product of the two gradients, which lets the pair
    search run on the gradient table without forming any matrices.
    """
    xs = np.arange(model.x_min, model.x_max + step / 2.0, step)
    xs[-1] = model.x_max
    grads = growth_grad(model, theta, xs)
    i, j = _pair_best(grads)
    pts = sorted((float(xs[i]), float(xs[j])))
    return DesignMeasure(tuple(pts), (0.5, 0.5))


def _triple_best(grads: np.ndarray, triples: np.ndarray) -> int:
    g = grads[triples]  # (T, 3, 3): rows are the three gradients
    return int(np.argmax(np.abs(det_sym_batch(g))))


def grid_oracle_three_point(model: ModelSpec, theta,
                            steps: tuple[float, ...] = (2.0, 0.25, 0.01)) -> DesignMeasure:
    """Staged exhaustive search over balanced three-point designs.

    A full pass at the finest grid is infeasible, so the search does an
    exhaustive pass at the coarsest step and then re-enumerates a +/- one
    coarse-step box around the incumbent at each finer step.  det of the sum
    of three rank-one terms equals det(G)^2 for the 3x3 gradient matrix G,
    so each stage is one batched determinant.
    """
    xs = np.arange(model.x_min, model.x_max + steps[0] / 2.0, steps[0])
    xs[-1] = model.x_max
    grads = growth_grad(model, theta, xs)
    triples = np.array(list(itertools.combinations(range(len(xs)), 3)))
    best = np.sort(xs[triples[_triple_best(grads, triples)]])

    for prev_step, step in zip(steps, steps[1:]):
        axes = []
        for center in best:
            lo = max(model.x_min, center - prev_step)
            hi = min(model.x_max, center + prev_step)
            ax = np.arange(lo, hi + step / 2.0, step)
            axes.append(np.append(ax, center))  # keep the incumbent reachable
        pts = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
        g = np.stack([growth_grad(model, theta, pts[:, k]) for k in range(3)], axis=1)
        k = int(np.argmax(np.abs(det_sym_batch(g))))
        best = np.sort(pts[k])

    if min(np.diff(best)) < _COINCIDENT_TOL:
        raise DegenerateDesign("oracle support collapsed")
    third = 1.0 / 3.0
    return DesignMeasure(tuple(float(x) for x in best), (third, third, third))


def _simplex_grid(n_steps: int) -> np.ndarray:
    """All compositions of n_steps into 4 parts, as proportions."""
    combos = []
    for a in range(n_steps + 1):
        for b in range(n_steps + 1 - a):
            for c in range(n_steps + 1 - a - b):
                combos.append((a, b, c, n_steps - a - b - c))
    return np.asarray(combos, dtype=float) / n_steps


def grid_oracle_glm(beta, step: float = 0.001, coarse: float = 0.01) -> DesignMeasure:
    """Exhaustive simplex search for the factorial logistic design.

    log det of the information is concave in the cell proportions, so a
    coarse full-simplex pass followed by a fine local pass around the
    incumbent finds the global grid optimum at resolution `step`.
    """
    w = cell_weights(beta)
    contribs = w[:, None, None] * XXT_CELLS  # (4, 3, 3)

    def best_of(props: np.ndarray) -> np.ndarray:
        mats = np.tensordot(props, contribs, axes=(1, 0))
        return props[int(np.argmax(det_sym_batch(mats)))]

    p = best_of(_simplex_grid(round(1.0 / coarse)))

    # fine pass: enumerate the first three coordinates near the incumbent
    span = coarse + step
    ranges = []
    for k in range(3):
        lo = max(0.0, p[k] - span)
        hi = min(1.0, p[k] + span)
        ranges.append(np.arange(round(lo / step), round(hi / step) + 1))
    grid = np.array(np.meshgrid(*ranges, indexing="ij")).reshape(3, -1).T * step
    last = 1.0 - grid.sum(axis=1)
    ok = last >= -1e-12
    props = np.column_stack([grid[ok], np.clip(last[ok], 0.0, 1.0)])
    p = best_of(props)
    return DesignMeasure(LEVEL_POINTS, tuple(float(v) for v in p))
