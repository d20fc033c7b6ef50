"""Replication orchestration, aggregation and flat-file outputs.

Replications run in a process pool (one rng stream per replication, seeded
as base seed + replication index), so results are independent of execution
order and worker count.  All output files except the timing report are pure
functions of the run configuration; wall-clock measurements are inherently
non-reproducible and live only in ``timing.json``.  The point columns of
``trajectories.csv`` and the study aggregate (allocation or density) come
from the model's entry in the model table.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics
from .config import RunConfig, validate_config
from .engine import Trajectory, run
from .errors import ConfigMismatch

__all__ = ["ReplicationSummary", "run_experiment", "compare_methods", "write_outputs"]


@dataclass
class ReplicationSummary:
    """Aggregates of one configuration's replications."""

    config: RunConfig
    trajectories: list[Trajectory]
    mean_curve: metrics.EfficiencyCurve | None
    median_total_ms: float
    total_ms: list[float]
    final_theta_mean: np.ndarray
    final_theta_cov: np.ndarray
    stop_indices: list[int | None] | None
    failures: list[tuple[int, int, str]]   # (replication, seed, message)
    # the model's study aggregate: pooled adaptive cell proportions of a
    # logistic model, or the pooled histogram of a growth model
    allocation: np.ndarray | None = None
    density: metrics.DensityHistogram | None = None


def _replicate(args) -> tuple[int, Trajectory | None, str | None]:
    config, r = args
    rng = np.random.default_rng(config.seed + r)
    try:
        return r, run(config, rng=rng), None
    except Exception as exc:  # recorded per replication, budgeted by the caller
        return r, None, f"{type(exc).__name__}: {exc}"


def _run_replications(config: RunConfig, workers: int | None):
    jobs = [(config, r) for r in range(config.replications)]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or config.replications == 1:
        results = [_replicate(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, jobs))
    results.sort(key=lambda item: item[0])
    return results


def run_experiment(config: RunConfig, out_dir: str | None = None,
                   workers: int | None = None) -> ReplicationSummary:
    """Run all replications, aggregate, and optionally write artifact files.

    Individual replication failures are recorded and skipped; the experiment
    only fails when more than 10% of replications do.
    """
    validate_config(config)
    results = _run_replications(config, workers)

    trajectories: list[Trajectory] = []
    failures: list[tuple[int, int, str]] = []
    for r, traj, err in results:
        if err is None:
            trajectories.append(traj)
        else:
            failures.append((r, config.seed + r, err))
    if len(failures) > 0.10 * config.replications:
        raise RuntimeError(
            f"{len(failures)}/{config.replications} replications failed; "
            f"first failure: {failures[0]}")

    model = config.to_model()
    aggregate_field, aggregate, _ = model.family.aggregate
    i_star = metrics.true_fisher_info(model)
    curves = [metrics.relative_efficiency(t, i_star) for t in trajectories]
    min_len = min(len(c.steps) for c in curves)
    mean_curve = metrics.mean_efficiency(
        [metrics.EfficiencyCurve(c.steps[:min_len], c.values[:min_len])
         for c in curves])

    finals = np.array([t.final_theta for t in trajectories])
    theta_cov = (np.cov(finals, rowvar=False) if len(finals) > 1
                 else np.zeros((finals.shape[1],) * 2))
    total_ms = [t.total_compute_ms() for t in trajectories]

    summary = ReplicationSummary(
        config=config,
        trajectories=trajectories,
        mean_curve=mean_curve,
        median_total_ms=float(np.median(total_ms)),
        total_ms=total_ms,
        final_theta_mean=finals.mean(axis=0),
        final_theta_cov=np.atleast_2d(theta_cov),
        stop_indices=([t.stop_index for t in trajectories]
                      if config.delta_stop is not None else None),
        failures=failures,
        **{aggregate_field: aggregate(trajectories)},
    )
    if out_dir is not None:
        write_outputs(summary, out_dir)
    return summary


def _write_trajectories_csv(summary: ReplicationSummary, path):
    """One row per trial and replication, written column-wise.

    Floats go through repr, logistic points as their integer levels, and
    the estimate and determinant cells stay empty before step n1.
    """
    model = summary.config.to_model()
    d = model.dim
    header = (["replication", "step", *model.family.columns, "y"]
              + [f"theta_hat_{k + 1}" for k in range(d)] + ["det_cum_info"])
    unestimated = [""] * (d + 1)

    def rows(rep, traj):
        xs = model.family.csv_points(traj.x)
        estimates = np.column_stack([traj.theta_hat, traj.det_cum_info]).tolist()
        return [[rep, k + 1, *x, y, *(est if k >= traj.n1 - 1 else unestimated)]
                for k, (x, y, est) in enumerate(zip(xs, traj.y.tolist(), estimates))]

    metrics.write_csv(path, header, itertools.chain.from_iterable(
        rows(rep, traj) for rep, traj in enumerate(summary.trajectories)))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outputs(summary: ReplicationSummary, out_dir: str):
    """Write the artifact tree: deterministic CSV/JSON plus timing.json."""
    os.makedirs(out_dir, exist_ok=True)
    name, _, write = summary.config.to_model().family.aggregate

    _write_trajectories_csv(summary, os.path.join(out_dir, "trajectories.csv"))
    metrics.efficiency_to_csv(summary.mean_curve,
                              os.path.join(out_dir, "mean_efficiency.csv"))
    write(getattr(summary, name), os.path.join(out_dir, f"{name}.csv"))

    doc = {
        "config": asdict(summary.config),
        "replications_succeeded": len(summary.trajectories),
        "failures": [list(f) for f in summary.failures],
        "final_theta_mean": [float(v) for v in summary.final_theta_mean],
        "final_theta_cov": [[float(v) for v in row]
                            for row in summary.final_theta_cov],
        "final_mean_efficiency": float(summary.mean_curve.values[-1]),
        "stop_indices": summary.stop_indices,
    }
    if summary.allocation is not None:
        doc["allocation"] = [float(v) for v in summary.allocation]
    _write_json(os.path.join(out_dir, "summary.json"), doc)
    _write_json(os.path.join(out_dir, "timing.json"), {
        "median_total_ms": summary.median_total_ms,
        "total_ms": summary.total_ms,
        "stage1_ms": [t.stage1_ms for t in summary.trajectories],
    })


def compare_methods(configs: list[RunConfig], workers: int | None = None,
                    eff_target: float = 0.6):
    """Run configs that differ only in method and tabulate the comparison.

    Returns (report, summaries): the report maps method name to median total
    compute time, the smallest step whose mean efficiency reaches the
    target, and the final mean efficiency.
    """
    if len(configs) < 2:
        raise ConfigMismatch("need at least two configs to compare")
    base = configs[0]
    for other in configs[1:]:
        for name in RunConfig.__dataclass_fields__:
            if name == "method":
                continue
            if getattr(base, name) != getattr(other, name):
                raise ConfigMismatch(
                    f"configs differ in '{name}': "
                    f"{getattr(base, name)!r} vs {getattr(other, name)!r}")
    methods = [c.method for c in configs]
    if len(set(methods)) != len(methods):
        raise ConfigMismatch(f"duplicate methods in comparison: {methods}")

    report: dict = {"efficiency_target": eff_target}
    summaries: dict[str, ReplicationSummary] = {}
    for cfg in configs:
        summary = run_experiment(cfg, workers=workers)
        summaries[cfg.method] = summary
        report[cfg.method] = {
            "median_total_ms": summary.median_total_ms,
            "crossing_step": metrics.crossing_step(summary.mean_curve, eff_target),
            "final_mean_efficiency": float(summary.mean_curve.values[-1]),
        }
    return report, summaries
