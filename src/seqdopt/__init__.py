"""Sequential locally D-optimal design for nonlinear models.

The package provides two adaptive strategies on top of a static first
stage: a criterion-maximizing step that optimizes the determinant of the
updated information at every trial, and a plug-in step that instead draws
the next trial from the closed-form optimal design evaluated at the current
estimate (optionally in balanced cycles).  Simulation harnesses compare the
two in estimation efficiency and compute time across five concrete models.
"""

from .config import RunConfig, parse_config
from .designs import (
    DesignMeasure,
    draw_point,
    mandal_c1,
    mandal_c2,
    optimal_design_m1,
    optimal_design_m2,
    optimal_design_m3,
)
from .engine import Trajectory, run
from .harness import ReplicationSummary, compare_methods, run_experiment
from .metrics import relative_efficiency, sequential_density
from .modelspec import ModelSpec, closed_form_design

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "parse_config",
    "DesignMeasure", "draw_point",
    "optimal_design_m1", "optimal_design_m2", "optimal_design_m3",
    "mandal_c1", "mandal_c2",
    "Trajectory", "run",
    "ReplicationSummary", "compare_methods", "run_experiment",
    "relative_efficiency", "sequential_density",
    "ModelSpec", "closed_form_design",
]
