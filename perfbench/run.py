"""riskcal benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload replay-sweep --seed 0 --seconds 25 --trace 0

Run it from the root of a riskcal checkout; the program under test is
imported from ``src/`` there. The benchmark writes only under
``.perfbench/`` in that directory: a temporary input/output directory that
it removes before exiting, and one result file per run in
``.perfbench/results/``.

A run writes the workload's inputs and config from ``--seed``, then starts
repetitions, each in a fresh interpreter, until ``--seconds`` have passed
(and at least ``MIN_MEASURED`` were measured). The first repetition is a
warm-up and is discarded from the timings. With ``--trace 0`` every
repetition runs without layer proxies and the end-to-end metrics are
reported; with ``--trace 1`` repetitions alternate between untraced and
traced, and the per-layer metrics come from the traced ones. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
DIGESTS_PATH = HERE / "digests.json"
DEFAULT_SEED = 0
MIN_MEASURED = 3
CHILD_TIMEOUT_S = 60
STOP_STARTING_AFTER_S = 100
# BLAS threads are pinned in the children only: the update rule is
# sequential and a thread pool would only add noise on a small machine.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving the directory."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "platform": platform.platform(),
            "commit": git_commit(root), "seed": seed}


def run_rep(root: Path, job: dict, tmp: Path, index: int, traced: bool):
    """One repetition in a fresh interpreter; returns its result dict, or a
    dict with only ``error`` when the child did not finish."""
    rep_dir = tmp / f"rep{index:03d}"
    rep_dir.mkdir()
    child_job = dict(job, out=str(rep_dir / "out"), trace=traced,
                     result=str(rep_dir / "result.json"))
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(child_job))
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               str(job_path)], cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s",
                "traced": traced}
    result_path = rep_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}",
                "traced": traced}
    rep = json.loads(result_path.read_text())
    rep["traced"] = traced
    shutil.rmtree(rep_dir)
    return rep


def judge(reps: list, expected_ops: int, reference: dict | None) -> tuple:
    """(attempted, failures): every operation of every repetition, warm-up
    included, checked against the reference digests. Without recorded
    digests the first repetition that finished is the reference."""
    attempted = 0
    failures = []
    for i, rep in enumerate(reps):
        attempted += expected_ops
        if rep.get("error"):
            failures += [f"rep {i}: {rep['error']}"] * expected_ops
            continue
        ops = rep["ops"]
        if reference is None:
            reference = {o["op"]: o for o in ops}
        if len(ops) != expected_ops:
            failures += [f"rep {i}: {len(ops)} of {expected_ops} operations "
                         f"produced output"] * (expected_ops - len(ops))
        for op in ops[:expected_ops]:
            reasons = list(op["reasons"])
            ref = reference.get(op["op"])
            if ref is None:
                reasons.append("no reference digest")
            else:
                for key in ("trace", "certificate"):
                    if op[key] != ref[key]:
                        reasons.append(f"{key} digest differs")
            if reasons:
                failures.append(f"rep {i} {op['op']}: {'; '.join(reasons)}")
    return attempted, failures


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[1], q[2]


# Timings are in reference time (see speed.py): each repetition's wall
# times rescaled by the machine-speed probe that ran alongside it. A run
# reports the median over its measured repetitions for every metric; the
# wall-time medians are printed next to them and kept in the result file.
# step_p99_us is printed and recorded but not gated in BENCHMARK.json: the
# tail catches stalls shorter than the probe's sampling period, and ten
# runs spread up to 36 % (IQR / median) on that machine.
UNGATED = ("step_p99_us",)
REFERENCE = {"steps_per_s": ("call_ref_s", "call_s"),
             "step_p50_us": ("step_p50_ref_us", "step_p50_us"),
             "step_p99_us": ("step_p99_ref_us", "step_p99_us"),
             "verify_s": ("verify_ref_s", "verify_s"),
             "setup_s": ("setup_ref_s", "setup_s")}


def per_rep(rep: dict, metric: str, key: str) -> float:
    if metric == "steps_per_s":
        return rep["steps"] / rep[key]
    if metric == "verify_s":
        return statistics.median(rep[key])
    return rep[key]


def end_to_end(measured: list) -> tuple:
    """Median over the untraced repetitions, in reference and wall time."""
    values, detail = {}, {}
    for name, keys in REFERENCE.items():
        ref, wall = ([per_rep(r, name, k) for r in measured] for k in keys)
        values[name] = statistics.median(ref)
        detail[name] = {"n": len(ref), "quartiles": quartiles(ref),
                        "wall_median": statistics.median(wall)}
    rss = [r["peak_rss_mb"] for r in measured]
    values["peak_rss_mb"] = statistics.median(rss)
    detail["peak_rss_mb"] = {"n": len(rss), "quartiles": quartiles(rss)}
    speed = [r["speed"] for r in measured]
    detail["machine_speed"] = {"n": len(speed), "quartiles": quartiles(speed)}
    return values, detail


# Per-layer metrics: (metric, span or counter, how it is derived). Times are
# self time: a span's duration minus the spans it caused.
LAYERS = (
    ("streams.item_us", "streams.item", "per_call"),
    ("streams.csv_ingest_s", "streams.csv_ingest", "total"),
    ("streams.csv_ingest_calls", "streams.csv_ingest", "calls"),
    ("models.predict_us", "models.predict", "per_call"),
    ("models.predict_calls_per_step", "models.predict", "calls_per_step"),
    ("models.update_us", "models.update", "per_call"),
    ("models.load_s", "models.load", "total"),
    ("sets.build_us", "sets.build", "per_call"),
    ("sets.build_share", "sets.build", "calls_per_step"),
    ("sets.score_us", "sets.score", "per_call"),
    ("sets.observe_us", "sets.observe", "per_call"),
    ("losses.call_us", "losses.call", "per_call"),
    ("stretching.apply_us", "stretching.apply", "per_call"),
    ("stretching.update_us", "stretching.update", "per_call"),
    ("engine.self_us_per_step", "engine.loop", "per_step"),
    ("multirisk.self_us_per_step", "multirisk.loop", "per_step"),
    ("baseline.self_us_per_step", "baseline.loop", "per_step"),
    ("baseline.quantile_us", "baseline.quantile", "per_call"),
    ("metrics.evaluate_s", "metrics.evaluate", "total"),
    ("experiment.export_us_per_row", "experiment.export", "per_row"),
    ("experiment.export_bytes", "experiment.export_bytes", "count"),
    ("experiment.import_us_per_row", "experiment.import", "per_row"),
    ("experiment.certificate_s", "experiment.certificate", "total"),
    ("experiment.val_pinball_s", "experiment.val_pinball", "total"),
)


def layer_values(rep: dict) -> tuple:
    """Per-layer metrics of one traced repetition, and the (metric, span)
    pairs whose span was never called, which report 0. Span times are
    scaled to reference time by the repetition's mean machine speed."""
    steps = rep["steps"]
    counts = rep["counts"]
    scale = rep["speed"]
    values, absent = {}, []
    for metric, span, how in LAYERS:
        # traces are read back during verification; all else is timed
        # inside the driver call
        stats = rep["stats" if span == "experiment.import" else "run_stats"]
        calls, total, child = stats.get(span, (0, 0, 0))
        self_ns = (total - child) * scale
        if how == "count":
            values[metric] = counts.get(span, 0)
        elif how == "calls":
            values[metric] = calls
        elif how == "calls_per_step":
            values[metric] = calls / steps
        elif not calls:
            absent.append((metric, span))
            values[metric] = 0.0
        elif how == "per_call":
            values[metric] = self_ns / calls / 1e3
        elif how == "per_step":
            values[metric] = self_ns / steps / 1e3
        elif how == "per_row":
            values[metric] = self_ns / counts[span + "_rows"] / 1e3
        else:  # total seconds per driver call
            values[metric] = self_ns / 1e9
    return values, absent


def per_layer(traced: list, untraced: list) -> tuple:
    """Per-layer metrics as medians over the traced repetitions, and the
    tracing overhead from the median reference throughput of each kind."""
    def sps(r):
        return r["steps"] / r["call_ref_s"]

    each = [layer_values(r) for r in traced]
    values = {name: statistics.median(v[name] for v, _ in each)
              for name in each[0][0]}
    absent = each[0][1]
    values["bench.trace_overhead"] = (
        statistics.median(map(sps, untraced))
        / statistics.median(map(sps, traced)) - 1.0)
    reasons = {metric: f"{span} was not called on this workload"
               for metric, span in absent}
    return values, reasons


def record_digests(workload: str, reps: list) -> None:
    done = next(r for r in reps if not r.get("error"))
    table = (json.loads(DIGESTS_PATH.read_text())
             if DIGESTS_PATH.is_file() else {})
    table[workload] = {o["op"]: {"trace": o["trace"],
                                 "certificate": o["certificate"]}
                       for o in done["ops"]}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                            + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's digests as the reference "
                             "for the default seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "riskcal" / "__init__.py").is_file():
        return fail(f"no riskcal sources under {root / 'src'}; run from the "
                    f"root of a riskcal checkout")
    if not SPEC_PATH.is_file():
        return fail(f"missing {SPEC_PATH}")
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")
    if args.record_digests and args.seed != DEFAULT_SEED:
        return fail(f"digests are recorded for seed {DEFAULT_SEED} only")

    sys.path.insert(0, str(HERE))
    import workloads

    work = root / ".perfbench"
    tmp = work / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        job = workloads.prepare(args.workload, args.seed, tmp)
        expected_ops = job.pop("operations")
        reps = []
        started_unix = time.time()
        start = time.monotonic()
        while True:
            # warm-up first, then untraced/traced alternately when tracing
            traced = bool(args.trace) and len(reps) % 2 == 0 and len(reps) > 0
            reps.append(run_rep(root, job, tmp, len(reps), traced))
            done = [r for r in reps[1:] if not r.get("error")]
            kinds = ([False, True] if args.trace else [False])
            enough = all(sum(r["traced"] == k for r in done) >= MIN_MEASURED
                         for k in kinds)
            elapsed = time.monotonic() - start
            errors = sum(1 for r in reps if r.get("error"))
            if (elapsed >= args.seconds and enough) \
                    or elapsed >= STOP_STARTING_AFTER_S \
                    or errors > MIN_MEASURED:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (work / "tmp").rmdir()
        except OSError:
            pass

    if args.record_digests:
        record_digests(args.workload, reps)
    recorded = (json.loads(DIGESTS_PATH.read_text()).get(args.workload)
                if args.seed == DEFAULT_SEED and DIGESTS_PATH.is_file()
                else None)
    if args.seed == DEFAULT_SEED and recorded is None:
        return fail(f"no recorded digests for {args.workload} in "
                    f"{DIGESTS_PATH.name}")
    attempted, failures = judge(reps, expected_ops, recorded)
    measured = [r for r in reps[1:] if not r.get("error")]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    if not untraced or (args.trace and not traced):
        for line in failures[:20]:
            print(line, file=sys.stderr)
        return fail("no repetition finished; no metrics")

    e2e, detail = end_to_end(untraced)
    env = environment(root, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(reps)} (1 warm-up)  commit {env['commit']}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy "
          f"{env['scipy']}  nproc {env['nproc']}  cpu {env['cpu']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if args.trace:
        values, absent = per_layer(traced, untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"per-layer metrics, median of {len(traced)} traced "
              f"repetitions (self time per call unless named otherwise; "
              f"reference time)")
        for name in units:
            note = f"  n/a: {absent[name]}" if name in absent else ""
            print(f"  {name:32s} {values[name]:14.6g} {units[name]}{note}")
    else:
        values = e2e
        absent = {}
        print(f"end-to-end metrics, median of {len(untraced)} measured "
              f"repetitions in reference time (wall-time median after it)")
        for name in list(units) + list(UNGATED):
            d = detail[name]
            q = d["quartiles"]
            wall = (f"; wall {d['wall_median']:.6g}" if "wall_median" in d
                    else "")
            note = "  (not gated)" if name in UNGATED else ""
            print(f"  {name:14s} {values[name]:14.6g} {units.get(name, 'us'):5s} "
                  f"quartiles {q[0]:.6g} {q[1]:.6g} {q[2]:.6g}{wall}{note}")
        q = detail["machine_speed"]["quartiles"]
        print(f"  {'machine speed':14s} {q[1]:14.6g} ratio quartiles "
              f"{q[0]:.6g} {q[1]:.6g} {q[2]:.6g} (1 = the fast state)")
    fail_ratio = len(failures) / attempted
    print(f"  {'fail_ratio':14s} {fail_ratio:14.6g} ratio  "
          f"({len(failures)} of {attempted} operations failed)")
    for line in failures[:20]:
        print(f"  FAILED {line}")

    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {n: {"value": values[n], "unit": units[n]}
                        for n in units}}
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "started_unix": started_unix, "environment": env,
              "result": line, "fail_ratio": fail_ratio,
              "ungated": {n: e2e[n] for n in UNGATED},
              "failures": failures, "not_applicable": absent,
              "detail": detail,
              "repetitions": [{k: v for k, v in r.items() if k != "ops"}
                              for r in reps]}
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
