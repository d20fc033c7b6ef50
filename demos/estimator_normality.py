"""Do sequentially designed experiments still yield well-behaved estimates?

The trials of an adaptive run are dependent, yet the final estimator
standardized by its own accumulated information should be approximately
standard normal.  This script replicates plug-in runs of the exponential
model and summarizes the standardized estimates.

Run:
    python demos/estimator_normality.py
"""

import numpy as np

from seqdopt.config import parse_config
from seqdopt.growth import cumulative_fisher_nlr
from seqdopt.harness import run_experiment
from seqdopt.metrics import normality_diagnostic

REPS = 80


def main():
    cfg = parse_config(model="M1", method="pics", n1=60, n=300, seed=19,
                       replications=REPS)
    summary = run_experiment(cfg)
    model = cfg.to_model()

    thetas, infos = [], []
    for traj in summary.trajectories:
        thetas.append(traj.final_theta)
        infos.append(cumulative_fisher_nlr(model, traj.final_theta, traj.x))
    diag = normality_diagnostic(thetas, model.theta_star, infos)

    print(f"{REPS} replications of the plug-in run at n={cfg.n}")
    print("mean of standardized estimates:", np.round(diag["mean"], 3),
          "(target 0)")
    print("covariance of standardized estimates:\n",
          np.round(diag["cov"], 3), "(target identity)")
    within = np.mean(np.all(np.abs(diag["z"]) < 1.96, axis=1))
    print(f"fraction with both components inside +/-1.96: {within:.2f} "
          f"(normal reference {0.95**2:.2f})")


if __name__ == "__main__":
    main()
