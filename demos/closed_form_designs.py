"""Closed-form optimal designs for all five models, checked against the
brute-force grid oracles.

The optimal design of a nonlinear model depends on the unknown parameters:
this script evaluates each family's closed form at the simulation-study
truth and shows that an exhaustive grid search over the same design class
finds nothing better.  Each check is the one `seqdopt oracle --model NAME`
prints.

Run:
    python demos/closed_form_designs.py
"""

import numpy as np

from seqdopt import modelspec
from seqdopt.config import parse_config


def main():
    for title, names, key, digits in (
            ("interval models (support points)", ("M1", "M2", "M3"), "support", 3),
            ("factorial logistic models (cell proportions)", ("GLM_C1", "GLM_C2"),
             "weights", 4)):
        print(f"=== {title} ===")
        for name in names:
            check = modelspec.oracle_check(parse_config(model=name).to_model())
            print(f"{name}: closed form {np.round(check['closed_form'][key], digits)}  "
                  f"oracle {np.round(check['oracle'][key], digits)}  "
                  f"oracle excess {check['oracle_excess']:+.2e}")
        print()


if __name__ == "__main__":
    main()
