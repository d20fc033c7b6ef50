"""The benchmark's workloads: seeded simulation studies of (model, method) cells.

This module imports nothing from seqdopt, so the set-up probe can time the
package import on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

#: methods of the plug-in (PICS) family; their cells feed the pics_* metrics
PICS_METHODS = ("pics", "balanced_pics")


@dataclass(frozen=True)
class Cell:
    """One run_experiment call: a (model, method) pair at fixed sizes."""

    model: str
    method: str
    n1: int
    n: int
    initial_design: str
    replications: int

    @property
    def name(self) -> str:
        return f"{self.model}-{self.method}"

    def config_kwargs(self, seed: int) -> dict:
        """parse_config arguments; replication r of this cell uses seed + r."""
        return dict(model=self.model, method=self.method, n1=self.n1, n=self.n,
                    initial_design=self.initial_design, seed=seed,
                    replications=self.replications)


def _cells(models, methods, n1, n, design, reps) -> tuple[Cell, ...]:
    return tuple(Cell(m, meth, n1, n, design, reps[meth])
                 for m in models for meth in methods)


# A round is one whole study, and a run reports medians over its rounds, so
# rounds are kept short (5-8 s with two workers) to give a run several of
# them.  The replication counts are the smallest that keep the mean final
# efficiencies steady from seed to seed and give every layer metric of the
# traced run its samples.
WORKLOADS: dict[str, tuple[Cell, ...]] = {
    # growth layers: cm's interval search, the M3 profile cold fit, the LM
    # refits, and the balanced scheduler next to independent draws
    # (the plug-in cells run at both ends of the round, so that pics_rep_ms
    # samples the host at two times)
    "m3-paper": _cells(("M3",), ("pics", "cm", "balanced_pics"), 60, 200, "uniform",
                       {"cm": 4, "pics": 4, "balanced_pics": 4}),
    # long, cheap trajectories: per-step overhead, exact logistic fits,
    # parent-side efficiency, pickling and artifact writing
    "glm-long": _cells(("GLM_C1", "GLM_C2"), ("cm", "pics"), 100, 1200, "four_point",
                       {"cm": 6, "pics": 10}),
}


def cell_seed(seed: int, workload: str, cell: Cell) -> int:
    """Base seed of a cell.

    Cells of one model share their seed, so cm and pics start from the same
    static stage (common random numbers); models are 1,000 seeds apart.
    """
    models = sorted({c.model for c in WORKLOADS[workload]})
    return 10_000 * seed + 1_000 * models.index(cell.model)
