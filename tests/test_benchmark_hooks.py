"""The benchmark's timing hooks still fire on the code they time.

``perfbench/proxies.py`` replaces riskcal's module attributes by name
(``experiment.write_trace_csv``, ``engine.run_stream``, ...). A refactor
that renames such an attribute, or stops calling it, leaves the proxy's
span empty: the benchmark then reports that layer as absent rather than
failing. This test installs both hook sets in a fresh interpreter, runs
short versions of the benchmark's workloads through ``run_experiment``,
``sweep`` and ``recompute_certificate``, one for each controller path, and
checks which spans were called.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Spans of perfbench/run.py's LAYERS that no code path calls, and why. A
# change to this set, either way, shows in the diff of this file.
NEVER_CALLED = {
    # the loop advances lambda with Stretch.next_lam; Stretch.updated has no
    # caller in the package (ROADMAP item 1)
    "stretching.update",
    # the ACI baseline keeps a sorted window and reads its quantile there;
    # empirical_quantile has no caller in the loop (ROADMAP item 1)
    "baseline.quantile",
}

_SCRIPT = r"""
import json, sys
from pathlib import Path

perfbench, src, tmp = map(Path, sys.argv[1:])
sys.path[:0] = [str(src), str(perfbench)]
from riskcal import experiment
import proxies, workloads
from run import LAYERS

clock, tracer = proxies.Clock(), proxies.Tracer()
proxies.install_clock(clock)
proxies.install_layers(tracer)


def short(cfg, steps, **changes):
    cfg.update(steps=steps, trials=1, eval_window=[steps // 4 + 1, steps],
               **changes)
    return cfg


image = short(workloads.image_multirisk(0, tmp)["config"], 150)
image["stream"].update(height=16, width=16)
jobs = {
    # a single CQR controller over the synthetic stream
    "tabular": short(workloads.tabular_cqr(0, tmp)["config"], 300),
    # two image risks under one two-sided controller, with a stretch
    "image": image,
    # the window-quantile baseline
    "aci": short(workloads.aci_baseline(0, tmp)["config"], 300),
}
for name, cfg in jobs.items():
    experiment.run_experiment(cfg, tmp / name)

# a CSV stream, replayed predictions and the error-adaptive stretch, swept
replay = workloads.replay_sweep(0, tmp)
cfg = short(replay["config"], 2_600, val_window=[2_001, 2_300])
experiment.sweep(cfg, replay["param"], replay["grid"][:2], tmp / "sweep")

rederived = {r.out_dir: experiment.recompute_certificate(r.out_dir)
             for r in clock.results}
print(json.dumps({
    "layers": [span for _, span, _ in LAYERS],
    "called": sorted({name for name, (calls, _, _) in tracer.stats.items()
                      if calls} | {name for name, n in tracer.counts.items()
                                   if n}),
    "loops": [len(ts) for ts in clock.loops],
    "results": [{"passed": r.certificate_passed,
                 "lines": [list(line) for line in r.certificate_lines],
                 "rederived": [list(line) for line in rederived[r.out_dir]]}
                for r in clock.results],
}))
"""


def test_every_timing_hook_fires(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])

    missing = set(out["layers"]) - set(out["called"])
    assert missing == NEVER_CALLED

    # three runs and a two-point sweep: one loop per trial, each timed at
    # every item it pulled
    assert len(out["results"]) == 5
    assert len(out["loops"]) == 5 and all(n > 0 for n in out["loops"])
    for res in out["results"]:
        assert res["passed"] and res["lines"]
        assert all("FAIL" not in verdict for _, verdict, _ in res["lines"])
        assert res["rederived"] == res["lines"]
