"""Command-line front end.

Subcommands:
  validate  parse a config, check every invariant, echo derived loads
  run       execute the experiment and write artifacts
  sweep     like run, but requires a sweep section (kept as its own verb
            so scripts fail loudly when a sweep is missing)
  oracle    print the closed-form oracles and bounds, regularizer stage
            included, without simulating
  selftest  run the brute-force oracle suite
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DcflowError
from .harness import ExperimentConfig, load_config, run_experiment, validate_config
from .metrics import format_report, oracle_table
from .selftest import run_selftest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "run", "sweep", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        if name in ("run", "sweep"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")

    p = sub.add_parser("selftest")
    p.add_argument("--fast", action="store_true", help="reduced problem sizes")
    return parser


def _cmd_validate(config: ExperimentConfig) -> int:
    plans = validate_config(config)
    print(f"config ok: {config.name}")
    for mult, plan in zip(config.sweep, plans):
        print(f"  sweep x{mult}: epsilon={plan.eps.epsilon!r}")
        for q in sorted(plan.profile.f, key=str):
            print(f"    f[{q}]={plan.profile.f[q]:.6f}  f_eps[{q}]={plan.eps.f_eps[q]:.6f}")
        for j, rho in sorted(plan.profile.rho.items()):
            print(f"    rho[route {j}]={rho:.6f}")
    return 0


def _cmd_oracle(config: ExperimentConfig) -> int:
    for mult, plan in zip(config.sweep, validate_config(config)):
        profile = plan.profile
        print(f"sweep x{mult}: epsilon={plan.eps.epsilon!r}")
        for (j, x), o in oracle_table(profile, plan.eps, plan.extra_wait).items():
            print(
                f"  route {j} size {x}: hops={profile.routes[j].hop_count} "
                f"rho={profile.rho[j]:.4f} wait={o.oracle_dw:.4f} sched={o.oracle_ds:.4f} "
                f"bound_wait={o.bound_dw:.4f} bound_sched={o.bound_ds:.4f} "
                f"bound_total={o.bound_d:.4f}"
            )
    return 0


def _cmd_run(config: ExperimentConfig, out: str | None, jobs: int, require_sweep: bool) -> int:
    if require_sweep and len(config.sweep) < 2:
        raise ConfigError("sweep command needs a config with at least two sweep points")
    result = run_experiment(config, out_dir=out, jobs=jobs)
    print(format_report([(p.mult, p.stats) for p in result.points]))
    print(json.dumps(result.verdict, indent=2, sort_keys=True))
    return 0 if result.passed else 1


def _cmd_selftest(fast: bool) -> int:
    results = run_selftest(fast=fast)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args.fast)
        config = load_config(args.config)
        if args.command == "validate":
            return _cmd_validate(config)
        if args.command == "oracle":
            return _cmd_oracle(config)
        if args.seed is not None:
            config.seed = args.seed
        return _cmd_run(config, args.out, args.jobs, require_sweep=args.command == "sweep")
    except DcflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
