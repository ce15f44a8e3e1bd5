"""Compare two sets of benchmark results: a parent commit and a change.

    # run alternating pairs, one seed per pair, in two checkouts
    python3 perfbench/compare.py run --parent ../riskcal-parent --change . \\
        --workload image-multirisk --workload replay-sweep --pairs 10 --out pairs/

    # classify every workload x end-to-end metric
    python3 perfbench/compare.py report pairs/parent pairs/change

``run`` uses this copy of the benchmark (its ``BENCHMARK.json``, run length
and workloads) for both sides, so both are measured with identical
benchmark code and settings; only ``src/`` differs. Pair ``i`` uses seed
``first_seed + i`` on both sides and alternates which side goes first.

``report`` applies these rules to each workload x end-to-end metric:

* fewer than 10 pairs: unresolved;
* better: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
  a gain does not count when the change failed more operations;
* worse: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json, and either the parent's spread is
  within the bound or every change run is worse than every parent run;
* unresolved: the parent's spread (IQR / median) exceeds the bound, unless
  every change run is better than every parent run;
* no worse: otherwise.

Every ratio is printed with its base (the parent's median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    for side, root in sides.items():
        if not (root / "src" / "riskcal").is_dir():
            print(f"{side}: no src/riskcal under {root}", file=sys.stderr)
            return 2
    out = Path(args.out)
    for side in sides:
        (out / side).mkdir(parents=True, exist_ok=True)
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(SPEC["run_seconds"]), "--trace", "0"],
                    cwd=sides[side], capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{side} {workload} seed {seed}: exit "
                          f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                record = {"workload": workload, "seed": seed, "pair": i,
                          "result": line}
                (out / side / f"{workload}-s{seed}.json").write_text(
                    json.dumps(record, indent=1))
                print(f"pair {i} {side:6s} {workload} seed {seed} done",
                      flush=True)
    return 0


def load(directory) -> dict:
    """{workload: {seed: result line}} from compare-run or run.py files."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace", 0):
            continue
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def classify(pairs, better: str, bound: float, more_failures: bool) -> str:
    if len(pairs) < MIN_PAIRS:
        return f"unresolved ({len(pairs)} pairs < {MIN_PAIRS})"
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    gain = sign * (mc - mp)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = (q3 - q1) / abs(mp)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "unresolved (more failures)" if more_failures else "better"
    if -gain / abs(mp) > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved (spread > bound)"
    return "no worse"


def report(args) -> int:
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1..q3]':>36s} "
          f"{'change median [q1..q3]':>36s} {'change/parent (base)':>26s} "
          f"{'wins':>7s}  verdict")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        seeds = sorted(set(parent.get(workload, {}))
                       & set(change.get(workload, {})))
        if not seeds:
            continue
        pf = sum(parent[workload][s]["failed"] for s in seeds)
        cf = sum(change[workload][s]["failed"] for s in seeds)
        att = sum(parent[workload][s]["attempted"] for s in seeds)
        for m in SPEC["end_to_end"]:
            pairs = [(parent[workload][s]["metrics"][m["name"]]["value"],
                      change[workload][s]["metrics"][m["name"]]["value"])
                     for s in seeds]
            verdict = classify(pairs, m["better"], m["bound"], cf > pf)
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            pq = quartiles([p for p, _ in pairs])
            cq = quartiles([c for _, c in pairs])
            unit = m["unit"]
            print(f"{workload:16s} {m['name']:12s} "
                  f"{f'{pq[1]:.5g} [{pq[0]:.5g}..{pq[2]:.5g}] {unit}':>36s} "
                  f"{f'{cq[1]:.5g} [{cq[0]:.5g}..{cq[2]:.5g}] {unit}':>36s} "
                  f"{f'{cq[1] / pq[1]:.4f} (of {pq[1]:.5g} {unit})':>26s} "
                  f"{f'{wins}/{len(pairs)}':>7s}  {verdict}")
        print(f"{workload:16s} failed operations: parent {pf} of {att}, "
              f"change {cf} of {att}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run alternating parent/change pairs")
    r.add_argument("--parent", required=True, help="parent checkout root")
    r.add_argument("--change", required=True, help="change checkout root")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="classify two result directories")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    return run_pairs(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
