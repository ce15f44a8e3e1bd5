"""Command-line experiment runner.

    riskcal run <config.json> [--seed N] [--trials N] [--out DIR]
    riskcal sweep <config.json> --param controller.gamma --grid 0.025 0.05 ...
    riskcal verify <out_dir>

Exit status is nonzero when any bound certificate fails, so a run can gate CI.
``verify`` re-derives the certificate of a run directory (or of every point
of a sweep directory) from its exported traces alone and exits 1 unless it
matches certificate.txt and passes.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

from .experiment import (ConfigError, certificate_passed, certificate_text,
                         load_config, recompute_certificate, run_experiment,
                         sweep)


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

    verify_p = sub.add_parser(
        "verify", help="re-derive a run's or a sweep's certificates from "
                       "its traces")
    verify_p.add_argument("out_dir", help="run or sweep output directory")

    return parser


def verify(out_dir) -> int:
    """Exit status of ``riskcal verify``: 0 when every run's re-derived
    certificate matches its certificate.txt and passes, 1 otherwise, 2 when
    the directory holds no run."""
    out = Path(out_dir)
    runs = ([out] if (out / "config.json").is_file()
            else sorted(p for p in out.glob("sweep_*") if p.is_dir()))
    if not runs:
        print(f"verify error: no config.json or sweep_* under {out}",
              file=sys.stderr)
        return 2
    status = 0
    for run in runs:
        try:
            lines = recompute_certificate(run)
            recorded = (run / "certificate.txt").read_text()
        except (OSError, ValueError, KeyError) as exc:
            print(f"{run}: ERROR {exc}")
            status = 1
            continue
        rederived = certificate_text(lines)
        if rederived != recorded:
            verdict = "MISMATCH"
        else:
            verdict = "PASS" if certificate_passed(lines) else "FAIL"
        print(f"{run}: {verdict}")
        for line in difflib.unified_diff(
                recorded.splitlines(), rederived.splitlines(),
                "certificate.txt", "re-derived", lineterm="", n=0):
            print(f"  {line}")
        status = status or int(verdict != "PASS")
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return verify(args.out_dir)
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
