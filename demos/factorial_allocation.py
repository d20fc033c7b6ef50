"""Adaptive allocation in the 2x2 factorial logistic experiment.

With equal coefficients the optimal design puts only ~10% of trials on the
(+1,+1) cell; the plug-in strategy learns this allocation from data.  Also
demonstrates the optional stopping rule on the relative determinant gain.

Run:
    python demos/factorial_allocation.py
"""

import numpy as np

from seqdopt import modelspec
from seqdopt.config import parse_config
from seqdopt.harness import run_experiment
from seqdopt.logistic import LEVEL_POINTS

REPS = 20


def main():
    model = parse_config(model="GLM_C1")
    target = modelspec.closed_form_design(model, model.true_params).weights
    print("optimal proportions:",
          {p: round(float(w), 4) for p, w in zip(LEVEL_POINTS, target)})

    cfg = parse_config(model="GLM_C1", method="pics", n1=80, n=800, seed=3,
                       replications=REPS)
    summary = run_experiment(cfg)
    print("pooled adaptive allocation over", REPS, "runs:",
          {p: round(float(a), 4) for p, a in zip(LEVEL_POINTS, summary.allocation)})
    print(f"final mean efficiency: {summary.mean_curve.values[-1]:.3f}")

    # stopping rule: quit once the relative determinant gain drops below delta
    cfg = parse_config(model="GLM_C1", method="pics", n1=80, n=800, seed=3,
                       replications=REPS, delta_stop=2e-3)
    summary = run_experiment(cfg)
    stops = [s if s is not None else cfg.n for s in summary.stop_indices]
    print(f"\nwith stopping threshold 2e-3: median stop at trial "
          f"{int(np.median(stops))} of {cfg.n}")


if __name__ == "__main__":
    main()
