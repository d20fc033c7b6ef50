"""In-memory span tracing around the layers of seqdopt, from outside.

The tracer replaces module attributes of the program with wrappers that
record a span (name, parent span, start, end, count) per call.  The
program calls its layers through these attributes at run time, so one
process traced this way sees every layer boundary; the program itself is
unchanged.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

#: per-step timings report a p99 only with ten samples beyond it
P99_MIN_SAMPLES = 1000

_STEP_SPANS = ("engine.cm_step", "engine.pics_step")
#: calls that a step's self time excludes
_STEP_CALLEES = ("modelspec.simulate", "fitting.fit", "engine.info")


class Tracer:
    """Span recorder; install() patches the program, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        self.start[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def traced(self, name: str, fn, count_of=None):
        """fn wrapped in a span; count_of(result) fills the span's count."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            self.start[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count_of is not None:
                self.count[idx] = count_of(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn):
        """fn that adds one to the count of the innermost open span."""
        stack, count = self._stack, self.count

        def wrapper(*args, **kwargs):
            if stack:
                count[stack[-1]] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the layer boundaries of seqdopt (see README, Tracing)."""
        from seqdopt import designs, engine, harness, metrics, modelspec

        run = self.traced("engine.run", engine.run)
        self._patch(engine, "run", run)
        self._patch(harness, "run", run)
        for attr, name in (("run_static_stage", "engine.stage1"),
                           ("cm_step", "engine.cm_step"),
                           ("pics_step", "engine.pics_step"),
                           ("_cm_select_interval", "engine.cm_select"),
                           ("_cm_select_cells", "engine.cm_select"),
                           ("_rebuild_cum_info", "engine.info"),
                           ("draw_point", "designs.plugin")):
            self._patch(engine, attr, self.traced(name, getattr(engine, attr)))
        # every criterion evaluation of cm's selection computes one determinant
        self._patch(engine, "det_sym", self.counted(engine.det_sym))
        self._patch(modelspec, "fit", self.traced("fitting.fit", modelspec.fit,
                                                  lambda res: res.iterations))
        self._patch(modelspec, "simulate",
                    self.traced("modelspec.simulate", modelspec.simulate))
        self._patch(modelspec, "closed_form_design",
                    self.traced("designs.plugin", modelspec.closed_form_design))
        for attr in ("__init__", "next_point"):
            self._patch(designs.BalancedScheduler, attr,
                        self.traced("designs.plugin",
                                    getattr(designs.BalancedScheduler, attr)))
        self._patch(metrics, "relative_efficiency",
                    self.traced("metrics.efficiency", metrics.relative_efficiency))
        self._patch(harness, "_run_replications",
                    self.traced("harness.pool", harness._run_replications))
        self._patch(harness, "write_outputs",
                    self.traced("harness.write", harness.write_outputs))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        """Save the spans as arrays: name (index into names), parent span
        (-1 for none), start and end (perf_counter seconds), count."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), count=np.asarray(self.count))

    # -----------------------------------------------------------------------
    # per-layer figures
    # -----------------------------------------------------------------------

    def _columns(self):
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.end) - np.frombuffer(self.start),
                np.frombuffer(self.count, dtype=np.int64).copy())

    def layer_metrics(self, rounds: list[dict]) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit).

        `rounds` holds, per benchmark round, the span index of each
        run_experiment call and the pickled-trajectory and artifact figures
        the benchmark measured around it.
        """
        name, parent, dur, count = self._columns()
        ids = self._name_ids
        has_parent = parent >= 0

        def child(nm):
            """Time each span spent in direct children named nm."""
            mask = has_parent & (name == ids.get(nm, -1))
            return np.bincount(parent[mask], weights=dur[mask], minlength=name.size)

        def sel(nm, parent_names=None):
            mask = name == ids.get(nm, -1)
            if parent_names is not None:
                parent_ids = [ids.get(p, -1) for p in parent_names]
                mask &= has_parent & np.isin(name[np.maximum(parent, 0)], parent_ids)
            return mask

        out: dict[str, tuple[float, str]] = {}

        def timing(metric, values_s, tail=False):
            ms = np.asarray(values_s) * 1e3
            if ms.size == 0:
                raise RuntimeError(f"no samples for {metric}")
            out[metric] = (float(np.median(ms)), "ms")
            if tail:
                if ms.size < P99_MIN_SAMPLES:
                    raise RuntimeError(f"{metric}: {ms.size} samples, "
                                       f"p99 needs {P99_MIN_SAMPLES}")
                out[metric + ".p99"] = (float(np.percentile(ms, 99)), "ms")

        def self_time(step):
            mask = sel(step)
            return dur[mask] - sum(child(c)[mask] for c in _STEP_CALLEES)

        timing("engine.stage1_ms", dur[sel("engine.stage1")])
        cold = sel("fitting.fit", ["engine.stage1"])
        timing("fitting.cold_fit_ms", dur[cold])
        out["fitting.cold_fit_iters"] = (float(count[cold].mean()), "count")
        refit = sel("fitting.fit", _STEP_SPANS)
        timing("fitting.refit_ms", dur[refit], tail=True)
        out["fitting.refit_iters"] = (float(count[refit].mean()), "count")
        timing("engine.cm_step_ms", self_time("engine.cm_step"), tail=True)
        select = sel("engine.cm_select")
        timing("engine.cm_select_ms", dur[select], tail=True)
        out["engine.cm_select_evals"] = (float(count[select].mean()), "count")
        timing("engine.pics_step_ms", self_time("engine.pics_step"), tail=True)
        timing("designs.plugin_ms", child("designs.plugin")[sel("engine.pics_step")],
               tail=True)
        timing("modelspec.simulate_ms", dur[sel("modelspec.simulate")], tail=True)
        timing("engine.info_ms", dur[sel("engine.info", _STEP_SPANS)], tail=True)
        timing("metrics.efficiency_ms", dur[sel("metrics.efficiency")])

        pool_time, write_time = child("harness.pool"), child("harness.write")
        per_round = {"pool": [], "write": [], "aggregate": []}
        for rnd in rounds:
            calls = np.asarray(rnd["run_experiment_spans"])
            pool = pool_time[calls].sum()
            write = write_time[calls].sum()
            per_round["pool"].append(pool)
            per_round["write"].append(write)
            per_round["aggregate"].append(dur[calls].sum() - pool - write)
        for key in ("aggregate", "pool"):
            out[f"harness.{key}_s"] = (float(np.median(per_round[key])), "s")
        ipc_bytes = [b for rnd in rounds for b in rnd["ipc_bytes"]]
        ipc_s = [s for rnd in rounds for s in rnd["ipc_s"]]
        out["harness.ipc_bytes"] = (float(np.median(ipc_bytes)), "bytes")
        out["harness.ipc_ms"] = (float(np.median(ipc_s)) * 1e3, "ms")
        out["harness.write_s"] = (float(np.median(per_round["write"])), "s")
        out["harness.artifact_bytes"] = (
            float(np.median([rnd["artifact_bytes"] for rnd in rounds])), "bytes")
        return out
