"""Command-line experiment runner.

    riskcal run <config.json> [--seed N] [--trials N] [--out DIR]
    riskcal sweep <config.json> --param controller.gamma --grid 0.025 0.05 ...

Exit status is nonzero when any bound certificate fails, so a run can gate CI.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiment import ConfigError, load_config, run_experiment, sweep


def _apply_overrides(cfg: dict, args) -> dict:
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.out is not None:
        cfg["out_dir"] = args.out
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcal",
        description="Streaming risk-controlled prediction sets: experiments, "
                    "traces and bound certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--out", default=None)

    sweep_p = sub.add_parser("sweep", help="grid sweep over one parameter")
    sweep_p.add_argument("config", help="path to JSON experiment config")
    sweep_p.add_argument("--param", required=True,
                         help="dotted config path, e.g. controller.gamma")
    sweep_p.add_argument("--grid", required=True, nargs="+", type=json.loads,
                         help="parameter values to try, each parsed as JSON")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--trials", type=int, default=None)
    sweep_p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "run":
            result = run_experiment(cfg)
            agg = {k: v for k, v in result.aggregate.items() if k != "trials"}
            print(json.dumps({"out_dir": result.out_dir,
                              "aggregate": agg,
                              "certificate": "PASS" if result.certificate_passed
                              else "FAIL"}, indent=2, sort_keys=True))
            return 0 if result.certificate_passed else 1
        selection = sweep(cfg, args.param, list(args.grid))
        print(json.dumps(selection, indent=2, sort_keys=True))
        failed = any(r["certificate"] == "FAIL" for r in selection["ranking"])
        return 1 if failed else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
