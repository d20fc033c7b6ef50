"""Check that two source trees write byte-identical artifacts.

Usage: python3 tools/artifact_sweep.py OLD_ROOT NEW_ROOT

Each ROOT is a checkout of this repository.  With each tree's ``src`` on
PYTHONPATH, in a temporary directory, the sweep runs ``seqdopt run`` on 25
configurations (seed 20240, 3 replications, one worker), four of them again
on two workers, and ``seqdopt design`` and ``seqdopt oracle`` on the five
models.  It lists every file whose bytes differ, or that only one tree
wrote, but ``timing.json``, which holds wall-clock times; it exits 1 if
there is any, else 0.  For a differing file that both trees wrote it also
prints the largest relative difference |a - b| / max(|a|, |b|) over the
file's numbers, CSV cells and JSON numbers compared position by position,
with the CSV column or JSON key where it occurs, so a change that agrees
within a tolerance instead of bit for bit shows by how much.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("M1", "M2", "M3", "GLM_C1", "GLM_C2")
METHODS = ("cm", "pics", "balanced_pics")

#: output directory -> the flags of its `seqdopt run`
RUNS = {
    **{f"{model}-{design}-{method}": ["--model", model, "--initial-design", design,
                                      "--method", method]
       for model, design in (("M1", "uniform"), ("M3", "uniform"), ("M2", "three_point"),
                             ("GLM_C1", "four_point"), ("GLM_C2", "four_point"))
       for method in METHODS},
    "M1-pics-delta_stop": ["--model", "M1", "--method", "pics", "--delta-stop", "2e-3"],
    "GLM_C2-pics-8-200": ["--model", "GLM_C2", "--method", "pics", "--n1", "8", "--n", "200"],
    **{f"M3-60-200-{method}": ["--model", "M3", "--method", method, "--n1", "60", "--n", "200"]
       for method in METHODS},
    # edge configs whose simplices clip at a bound or tie
    "M3-pics-sigma2-10": ["--model", "M3", "--method", "pics", "--sigma2", "10",
                          "--n1", "5", "--n", "40"],
    "M1-cm-sigma2-10": ["--model", "M1", "--method", "cm", "--sigma2", "10",
                        "--n1", "4", "--n", "30"],
    "M3-cm-x_max-1e4": ["--model", "M3", "--method", "cm", "--x-max", "1e4",
                        "--n1", "6", "--n", "40"],
    # small logistic static stages: separation, fits on the C2 box edge and
    # cm candidates whose determinants are all 0.0
    **{f"{model}-cm-8-100": ["--model", model, "--method", "cm", "--n1", "8", "--n", "100"]
       for model in ("GLM_C2", "GLM_C1")},
}
#: the runs repeated on two workers, whose jobs and trajectories cross the
#: process pool; each writes to its name with "-pooled" appended
POOLED = ("GLM_C2-pics-8-200", *(f"M3-60-200-{method}" for method in METHODS))


def sweep(root: Path, out: Path) -> None:
    """Every run's artifact tree and every report, from `root`'s source, in `out`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def seqdopt(*args, stdout=subprocess.DEVNULL):
        subprocess.run([sys.executable, "-m", "seqdopt.cli", *args], env=env, cwd=out,
                       stdout=stdout, check=True)

    runs = [(name, "1", name) for name in RUNS] + [(name, "2", f"{name}-pooled")
                                                   for name in POOLED]
    for name, workers, out_dir in runs:
        seqdopt("run", *RUNS[name], "--seed", "20240", "--reps", "3", "--workers", workers,
                "--out-dir", out_dir)
    for model in MODELS:
        for report in ("design", "oracle"):
            with open(out / f"{report}-{model}.json", "w") as fh:
                seqdopt(report, "--model", model, stdout=fh)


def differing(old: Path, new: Path) -> tuple[list[str], int]:
    """Files, relative to each tree, that differ or exist in one only, and
    the number of files compared; timing.json is skipped."""
    names = {p.relative_to(tree) for tree in (old, new) for p in tree.rglob("*")
             if p.is_file() and p.name != "timing.json"}
    diffs = [str(n) for n in sorted(names)
             if not ((old / n).is_file() and (new / n).is_file()
                     and filecmp.cmp(old / n, new / n, shallow=False))]
    return diffs, len(names)


def _numbers(path: Path) -> list[tuple[str, float]]:
    """(label, value) of every number in a CSV or JSON file, in file order:
    a CSV cell is labelled by its column's header, a JSON number by its key
    path.  Other files, and cells that are not numbers, hold none."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        out = []
        for row in rows:
            for label, cell in zip(header, row):
                try:
                    out.append((label, float(cell)))
                except ValueError:
                    pass
        return out
    if path.suffix != ".json":
        return []

    def walk(node, label):
        if isinstance(node, dict):
            return [item for key in node for item in walk(node[key], f"{label}.{key}")]
        if isinstance(node, list):
            return [item for k, v in enumerate(node) for item in walk(v, f"{label}[{k}]")]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return [(label, float(node))]
        return []
    with open(path) as fh:
        return [(label.lstrip("."), v) for label, v in walk(json.load(fh), "")]


def largest_difference(old: Path, new: Path) -> str:
    """The largest relative difference between two files' numbers, position
    by position, and where it occurs; or why they cannot be compared."""
    a, b = _numbers(old), _numbers(new)
    if not a and not b:
        return "no numbers to compare"
    if [label for label, _ in a] != [label for label, _ in b]:
        return f"numbers not comparable ({len(a)} against {len(b)})"
    worst, where = 0.0, ""
    for (label, u), (_, v) in zip(a, b):
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        rel = abs(u - v) / max(abs(u), abs(v))
        if not rel <= worst:   # NaN against a number reads as the largest
            worst, where = rel, label
            if math.isnan(rel):
                break
    if not where:
        return "numbers equal"
    return f"largest relative difference {worst:.2g} at {where}"


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python3 tools/artifact_sweep.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    roots = [Path(arg).resolve() for arg in sys.argv[1:]]
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for label, root in zip(("old", "new"), roots):
            out = Path(tmp) / label
            out.mkdir()
            print(f"sweeping {root}", file=sys.stderr)
            sweep(root, out)
            outs.append(out)
        diffs, compared = differing(*outs)
        for name in diffs:
            old, new = (out / name for out in outs)
            note = (largest_difference(old, new) if old.is_file() and new.is_file()
                    else "written by one tree only")
            print(f"differs: {name} ({note})")
    print(f"{len(diffs)} of {compared} files differ ({len(RUNS)} runs, {len(POOLED)} "
          f"pooled, {2 * len(MODELS)} reports; timing.json skipped)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
