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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import metrics
from .config import RunConfig
from .engine import Trajectory, run
from .errors import ConfigError, StepFailed

__all__ = ["ReplicationFailure", "ReplicationSummary", "run_experiment",
           "compare_methods", "write_outputs"]


@dataclass(frozen=True)
class ReplicationFailure:
    """One failed replication: its index and seed, the step that raised
    (None outside the sequential stage), and the class and message of the
    error behind it (a failed step's cause, not the ``StepFailed`` wrapper)."""

    replication: int
    seed: int
    step: int | None
    cause: str
    message: str

    @classmethod
    def from_exception(cls, replication: int, seed: int, exc: Exception):
        if isinstance(exc, StepFailed):
            step, cause = exc.step, exc.__cause__ or exc
        else:
            step, cause = None, exc
        return cls(replication, seed, step, type(cause).__name__, str(cause))


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
    failures: list[ReplicationFailure]
    # the model's study aggregate: pooled adaptive cell proportions of a
    # logistic model, or the pooled histogram of a growth model
    allocation: np.ndarray | None = None
    density: metrics.DensityHistogram | None = None


def _replicate(args) -> tuple[Trajectory | None, ReplicationFailure | None]:
    config, r = args
    rng = np.random.default_rng(config.seed + r)
    try:
        return run(config, rng=rng), None
    except Exception as exc:  # recorded per replication, budgeted by the caller
        # built here: the cause of a StepFailed does not survive pickling
        return None, ReplicationFailure.from_exception(r, config.seed + r, exc)


def _run_replications(config: RunConfig, workers: int | None):
    jobs = [(config, r) for r in range(config.replications)]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or config.replications == 1:
        return [_replicate(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replicate, jobs))


def run_experiment(config: RunConfig, out_dir: str | None = None,
                   workers: int | None = None) -> ReplicationSummary:
    """Run all replications, aggregate, and optionally write artifact files.

    Individual replication failures are recorded and skipped; the experiment
    only fails when more than 10% of replications do.
    """
    results = _run_replications(config, workers)

    trajectories: list[Trajectory] = []
    failures: list[ReplicationFailure] = []
    for traj, failure in results:
        if failure is None:
            trajectories.append(traj)
        else:
            failures.append(failure)
    if len(failures) > 0.10 * config.replications:
        raise RuntimeError(
            f"{len(failures)}/{config.replications} replications failed; "
            f"first failure: {failures[0]}")

    aggregate_field, aggregate, _ = config.family.aggregate
    # a delta_stop run can end early: the mean covers the shortest run's steps
    curves = [metrics.relative_efficiency(t) for t in trajectories]
    min_len = min(len(c.steps) for c in curves)
    mean_curve = metrics.EfficiencyCurve(
        curves[0].steps[:min_len], np.mean([c.values[:min_len] for c in curves], axis=0))

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
    """One row per trial and replication, formatted column-wise.

    A row's replication is its index r, seeded seed + r, as summary.json's
    failures name theirs; a failed replication has no rows.  Floats go
    through repr, logistic points as their integer levels, and the estimate
    and determinant cells stay empty before step n1.
    """
    family = summary.config.family
    header = (["replication", "step", *family.columns, "y"]
              + [f"theta_hat_{k + 1}" for k in range(family.dim)] + ["det_cum_info"])

    def rows(rep, traj):
        n, skip = len(traj), traj.n1 - 1
        estimates = np.column_stack([traj.theta_hat, traj.det_cum_info])[skip:]
        return zip([str(rep)] * n, map(str, range(1, n + 1)),
                   *(map(str, c) for c in zip(*family.csv_points(traj.x))),
                   map(repr, traj.y.tolist()),
                   *([""] * skip + list(map(repr, c)) for c in estimates.T.tolist()))

    failed = {f.replication for f in summary.failures}
    reps = [r for r in range(summary.config.replications) if r not in failed]
    metrics.write_csv(path, header, itertools.chain.from_iterable(
        rows(rep, traj) for rep, traj in zip(reps, summary.trajectories)))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outputs(summary: ReplicationSummary, out_dir: str):
    """Write the artifact tree: deterministic CSV/JSON plus timing.json."""
    os.makedirs(out_dir, exist_ok=True)
    name, _, write = summary.config.family.aggregate

    _write_trajectories_csv(summary, os.path.join(out_dir, "trajectories.csv"))
    metrics.efficiency_to_csv(summary.mean_curve,
                              os.path.join(out_dir, "mean_efficiency.csv"))
    write(getattr(summary, name), os.path.join(out_dir, f"{name}.csv"))

    doc = {
        "config": asdict(summary.config),
        "replications_succeeded": len(summary.trajectories),
        "failures": [asdict(f) for f in summary.failures],
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
        "stage1_ms": [float(t.step_ms[t.n1 - 1]) for t in summary.trajectories],
    })


def compare_methods(config: RunConfig, methods, workers: int | None = None,
                    eff_target: float = 0.6):
    """Run `config` under each of two or more distinct methods and tabulate
    the comparison.

    Returns (report, summaries): the report maps method name to median total
    compute time, the smallest step whose mean efficiency reaches the
    target, and the final mean efficiency.
    """
    if len(methods) < 2 or len(set(methods)) != len(methods):
        raise ConfigError(f"config field 'method': need two or more distinct "
                          f"methods to compare, got {methods}")
    configs = [replace(config, method=m) for m in methods]

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
