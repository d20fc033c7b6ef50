"""Criterion-maximizing vs plug-in sequential design on the known
change-point model: relative efficiency over the run.

Both methods share the same static stage; the adaptive stage then either
numerically maximizes the determinant criterion at every trial (cm) or
draws the next trial from the closed-form optimal design at the current
estimate (pics).  The plug-in reaches high efficiency with markedly fewer
trials and a fraction of the compute.

Run (a couple of minutes):
    python demos/sequential_efficiency.py
"""

from seqdopt.config import parse_config
from seqdopt.harness import compare_methods
from seqdopt.metrics import crossing_step

REPS = 15  # enough to see the effect; the tests use 50


def main():
    config = parse_config(model="M2", n1=60, n=200, initial_design="three_point",
                          seed=7, replications=REPS)
    report, summaries = compare_methods(config, ("cm", "pics"), eff_target=0.6)

    for method in ("cm", "pics"):
        summary = summaries[method]
        curve = summary.mean_curve
        cross = crossing_step(curve, 0.6)
        print(f"{method:4s}: reaches 60% efficiency at trial {cross}, "
              f"final efficiency {curve.values[-1]:.3f}, "
              f"median compute {summary.median_total_ms:.0f} ms")

    steps = summaries["cm"].mean_curve.steps
    print("\n step   e(cm)   e(pics)")
    for i in range(0, len(steps), 20):
        print(f" {steps[i]:4d}  {summaries['cm'].mean_curve.values[i]:.3f}"
              f"   {summaries['pics'].mean_curve.values[i]:.3f}")


if __name__ == "__main__":
    main()
