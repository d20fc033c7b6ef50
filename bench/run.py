"""seqdopt benchmark: seeded simulation studies, end to end or traced by layer.

    python3 bench/run.py --workload m3-paper --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  A run repeats whole rounds of its
workload's study until --seconds have passed; each round sends every
(model, method) cell through harness.run_experiment with a process pool
of one worker per available CPU and writes the artifact tree under
.bench_out/.  Timings are medians over the rounds.  Then it checks the
outputs (checks.py) and prints a table, followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs the rounds in
one process with every layer wrapped in spans (tracing.py) and reports the
per-layer metrics; the spans go to .bench_out/<workload>/spans.npz.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import P99_MIN_SAMPLES, Tracer
from workloads import PICS_METHODS, WORKLOADS, cell_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: timed set-up probes before the rounds and again after them, so that
#: setup_s samples the host at both ends of the run; one untimed probe
#: fills the bytecode cache first
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

_FAILED_RE = re.compile(r"(\d+)/\d+ replications failed")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_times(workload: str, seed: int, probes: int) -> list[float]:
    """Set-up times of fresh interpreters (setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def install_rep_timer(engine, harness):
    """Time every engine.run call, in whichever process makes it.

    The pool's workers are forked after this patch, so they run the timed
    wrapper too; the time rides back on the pickled trajectory.
    """
    original = engine.run

    def timed_run(config, rng=None):
        t0 = time.perf_counter()
        traj = original(config, rng=rng)
        traj.bench_run_ms = (time.perf_counter() - t0) * 1e3
        return traj

    engine.run = harness.run = timed_run


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Study:
    """The workload's cells with their configs, run round after round."""

    def __init__(self, workload: str, seed: int, workers: int):
        from seqdopt import engine, harness
        from seqdopt.config import parse_config

        self.engine, self.harness = engine, harness
        self.cells = WORKLOADS[workload]
        self.configs = [parse_config(**c.config_kwargs(cell_seed(seed, workload, c)))
                        for c in self.cells]
        self.out = OUT / workload
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.last: list = []             # latest round's summary per cell (None if raised)
        self.digests: list = []          # round 0's trajectory digest per cell
        self.problems: list[str] = []    # rounds that differ from round 1
        self.failures: list[str] = []    # studies that raised on failed replications
        self.round_s: list[float] = []   # wall time of each round
        # per cell, the mean replication time of each round
        self.rep_ms: dict[str, list[float]] = {c.name: [] for c in self.cells}
        self.trace_rounds: list[dict] = []

    def run_cell(self, cfg, out_dir: Path):
        """One run_experiment call; a study that raises on failed
        replications is counted, not fatal."""
        self.attempted += cfg.replications
        try:
            summary = self.harness.run_experiment(cfg, out_dir=str(out_dir),
                                                  workers=self.workers)
        except RuntimeError as exc:
            match = _FAILED_RE.search(str(exc))
            if match is None:
                raise
            self.failed += int(match.group(1))
            self.failures.append(f"{out_dir.name}: {exc}")
            return None
        self.failed += len(summary.failures)
        return summary

    def round(self, tracer=None):
        self.last = []  # hold one round at a time, so peak memory is one round's
        summaries, trace_round = [], {"run_experiment_spans": [], "ipc_bytes": [],
                                      "ipc_s": [], "artifact_bytes": 0}
        t0 = time.perf_counter()
        for cell, cfg in zip(self.cells, self.configs):
            out_dir = self.out / cell.name
            if tracer is None:
                summaries.append(self.run_cell(cfg, out_dir))
                continue
            with tracer.span("harness.run_experiment") as idx:
                summary = self.run_cell(cfg, out_dir)
            summaries.append(summary)
            trace_round["run_experiment_spans"].append(idx)
            trace_round["artifact_bytes"] += dir_bytes(out_dir)
            for traj in summary.trajectories if summary else ():
                t = time.perf_counter()
                blob = pickle.dumps(traj)
                pickle.loads(blob)
                trace_round["ipc_s"].append(time.perf_counter() - t)
                trace_round["ipc_bytes"].append(len(blob))
        self.round_s.append(time.perf_counter() - t0)
        if tracer is not None:
            self.trace_rounds.append(trace_round)
        else:
            for cell, summary in zip(self.cells, summaries):
                trajs = summary.trajectories if summary else []
                if not all(hasattr(traj, "bench_run_ms") for traj in trajs):
                    raise RuntimeError("replications were not timed: the pool "
                                       "no longer runs engine.run through "
                                       "harness.run in forked workers")
                if trajs:
                    self.rep_ms[cell.name].append(
                        statistics.fmean(traj.bench_run_ms for traj in trajs))
        digests = [checks.digest(s.trajectories) if s else None for s in summaries]
        if not self.digests:
            self.digests = digests
        self.problems += [f"{cell.name}: round {len(self.round_s)} differs from round 1"
                          for cell, a, b in zip(self.cells, self.digests, digests)
                          if a is not None and b is not None and a != b]
        self.last = summaries

    def traced_rounds(self) -> int:
        """Rounds that give cm and plug-in steps P99_MIN_SAMPLES each."""
        steps = {}
        for c in self.cells:
            kind = "cm" if c.method == "cm" else "pics"
            steps[kind] = steps.get(kind, 0) + c.replications * (c.n - c.n1)
        return max(math.ceil(P99_MIN_SAMPLES / s) for s in steps.values())

    def measure(self, seconds: float, tracer=None):
        """Whole rounds until `seconds` have passed (and, traced, until the
        step samples suffice for a p99)."""
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        min_rounds = 1 if tracer is None else self.traced_rounds()
        start = time.perf_counter()
        while True:
            self.round(tracer)
            if (time.perf_counter() - start >= seconds
                    and len(self.round_s) >= min_rounds):
                return

    def check(self, run_engine) -> dict[str, list[str]]:
        """Every output check on the latest round, plus a serial replay of the
        last replication of each cell against its pooled trajectory."""
        results = {"determinism": list(self.problems)}
        for cell, cfg, summary in zip(self.cells, self.configs, self.last):
            if summary is None:
                continue
            for name, fails in checks.study_checks(cfg, summary,
                                                   str(self.out / cell.name)).items():
                results.setdefault(name, []).extend(f"{cell.name}: {f}" for f in fails)
            r = len(summary.trajectories) - 1
            serial = run_engine(cfg, rng=np.random.default_rng(cfg.seed + r))
            results["determinism"] += checks.check_same(
                [summary.trajectories[r]], [serial], f"{cell.name} serial replay")
        return results

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        def by_method(methods, value):
            vals = [value(c, s) for c, s in zip(self.cells, self.last)
                    if c.method in methods and s is not None]
            if not vals:
                raise RuntimeError(f"no completed cell for {methods}")
            return statistics.fmean(vals)

        def rep_ms(cell, _):
            # within a round the mean, not the median: pooled replication
            # times are bimodal (see README, Noise), and a median jumps
            # between the modes; over rounds the median, like study_s
            return statistics.median(self.rep_ms[cell.name])

        def final_eff(_, summary):
            return float(summary.mean_curve.values[-1])

        return {
            "study_s": (statistics.median(self.round_s), "s"),
            "cm_rep_ms": (by_method(("cm",), rep_ms), "ms"),
            "pics_rep_ms": (by_method(PICS_METHODS, rep_ms), "ms"),
            "cm_eff": (by_method(("cm",), final_eff), "1"),
            "pics_eff": (by_method(PICS_METHODS, final_eff), "1"),
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqdopt" / "__init__.py").is_file():
        print(f"seqdopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if not args.trace:
        setup_times(args.workload, args.seed, 1)
        setup = setup_times(args.workload, args.seed, SETUP_PROBES)
    # the traced run stays in one process, so that every span is recorded
    workers = 1 if args.trace else len(os.sched_getaffinity(0))
    study = Study(args.workload, args.seed, workers)
    run_engine = study.engine.run
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            study.measure(args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(study.trace_rounds)
        tracer.write(str(study.out / "spans.npz"))
    else:
        install_rep_timer(study.engine, study.harness)
        try:
            study.measure(args.seconds)
        finally:
            study.engine.run = study.harness.run = run_engine
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += setup_times(args.workload, args.seed, SETUP_PROBES)
        metrics = {"setup_s": (statistics.median(setup), "s"), **study.end_to_end(),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    results = study.check(run_engine)
    correct = not any(results.values())
    print(f"workload {args.workload}, seed {args.seed}, {len(study.round_s)} rounds, "
          f"{study.workers} worker(s), trace {args.trace}")
    for name, fails in results.items():
        print(f"  check {name:12s} {'ok' if not fails else 'FAILED'}")
        for f in fails[:5]:
            print(f"    {f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(f"  rounds (s): {' '.join(f'{t:.3f}' for t in study.round_s)}")
    print(f"  replications attempted {study.attempted}, failed {study.failed}")
    for note in study.failures[:5]:
        print(f"    {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": study.attempted,
        "failed": study.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
