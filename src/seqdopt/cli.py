"""Command-line entry points.

Subcommands:
  run      one configuration, writes the artifact tree to --out-dir
  compare  one configuration under several methods
  design   print the closed-form optimal design at a parameter vector
  oracle   check a closed form against the brute-force grid oracle
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness, modelspec
from .config import METHODS, RunConfig, parse_config
from .errors import ConfigError


def _add_config_flags(p: argparse.ArgumentParser, run_flags: bool):
    """The model flags of every subcommand, and with `run_flags` those of a run."""
    p.add_argument("--model", choices=modelspec.MODEL_NAMES)
    p.add_argument("--theta", help="comma-separated true parameters")
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--x0-known", dest="x0_known", type=float)
    if run_flags:
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--sigma2", type=float)
        p.add_argument("--n1", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--initial-design", dest="initial_design",
                       help="static-stage design, one of the model's (default: its first)")
        p.add_argument("--delta-stop", dest="delta_stop", type=float)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--reps", type=int, required=True)
        p.add_argument("--workers", type=int)


def _config_from_args(args):
    """Validated config from any subcommand's flags (and --config file)."""
    flags = vars(args)
    overrides = {k: v for k, v in flags.items() if k in RunConfig.__dataclass_fields__}
    overrides["replications"] = flags.get("reps")
    if args.theta is not None:
        try:
            overrides["true_params"] = tuple(float(v) for v in args.theta.split(","))
        except ValueError:
            raise ConfigError("config field 'true_params': --theta takes comma-separated "
                              f"numbers, got {args.theta!r}") from None
    return parse_config(flags.get("config"), **overrides)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    try:   # the destination is made before any replication runs
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir: {exc}") from None
    summary = harness.run_experiment(config, out_dir=args.out_dir,
                                     workers=args.workers)
    print(f"wrote {args.out_dir}: {len(summary.trajectories)} replications, "
          f"final mean efficiency "
          f"{float(summary.mean_curve.values[-1]):.4f}, "
          f"median total compute {summary.median_total_ms:.1f} ms")
    return 0


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    if args.out:
        try:   # the report's path is opened before any replication runs
            open(args.out, "a").close()
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from None
    report, _ = harness.compare_methods(config, args.methods.split(","),
                                        workers=args.workers, eff_target=args.eff_target)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def _cmd_report(args) -> int:
    """design / oracle: one report on the configured model at its true values."""
    print(args.report(_config_from_args(args)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqdopt",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration")
    _add_config_flags(p_run, run_flags=True)
    p_run.add_argument("--method", choices=METHODS, default=None)
    p_run.add_argument("--out-dir", dest="out_dir", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare methods on one setting")
    _add_config_flags(p_cmp, run_flags=True)
    p_cmp.add_argument("--methods", default="cm,pics",
                       help="comma-separated methods (default cm,pics)")
    p_cmp.add_argument("--eff-target", dest="eff_target", type=float, default=0.6)
    p_cmp.add_argument("--out", help="write the comparison report JSON here")
    p_cmp.set_defaults(fn=_cmd_compare)

    for name, help_text, report in (
            ("design", "print the closed-form design",
             lambda m: modelspec.closed_form_design(m, m.true_params).to_json()),
            ("oracle", "grid oracle vs closed form",
             lambda m: json.dumps(modelspec.oracle_check(m), indent=2))):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p, run_flags=False)
        p.set_defaults(fn=_cmd_report, report=report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:  # one line naming the field, not a traceback
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
