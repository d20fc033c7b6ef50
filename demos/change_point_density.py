"""Where do the adaptive trials land for the unknown-change-point model?

Pools the adaptive-stage design points of plain and balanced plug-in runs
and prints a text histogram.  The mass should pile up around the three
optimal support points, with the balanced variant splitting it a third
each.

Run:
    python demos/change_point_density.py
"""

import numpy as np

from seqdopt import modelspec
from seqdopt.config import parse_config
from seqdopt.harness import run_experiment
from seqdopt.metrics import sequential_density

REPS = 20


def main():
    model = parse_config(model="M3")
    support = modelspec.closed_form_design(model, model.true_params).support
    print(f"optimal support at {np.round(support, 2)}\n")

    for method in ("pics", "balanced_pics"):
        cfg = parse_config(model="M3", method=method, n1=60, n=200,
                           initial_design="uniform", seed=11,
                           replications=REPS)
        summary = run_experiment(cfg)
        hist = sequential_density(summary.trajectories, bins=50)
        print(f"--- {method} (pooled over {REPS} runs) ---")
        for left, right, mass in zip(hist.edges[:-1], hist.edges[1:], hist.mass):
            if mass > 0.004:
                bar = "#" * int(round(mass * 200))
                print(f"  [{left:6.1f}, {right:6.1f})  {mass:.3f} {bar}")
        masses = [hist.mass_near(s, halfwidth_bins=1) for s in support]
        print(f"  mass near the three optimal points: {np.round(masses, 3)}\n")


if __name__ == "__main__":
    main()
