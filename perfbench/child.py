"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py JOB.json

JOB.json names the experiment config, the driver (``run`` or ``sweep``),
the output directory, whether layer proxies are on, and where to write the
result. The program under test is imported from ``src/`` of the current
directory. Nothing from numpy or riskcal is imported before the set-up
clock starts.

Every timing is reported twice: in wall time, and in reference time, the
wall time rescaled by the machine-speed probe of ``speed.py`` that runs
throughout the repetition.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
VERIFY_REPEATS = 3


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def render(lines) -> list[str]:
    """Certificate lines as ``run_experiment`` writes them to certificate.txt."""
    return [f"{name}: {verdict} ({detail})" for name, verdict, detail in lines]


def rederive(results) -> dict:
    """Certificate lines re-derived from each output directory's CSVs."""
    from riskcal import experiment

    return {r.out_dir: experiment.recompute_certificate(r.out_dir)
            for r in results}


def check_operations(results, out_root, rederived: dict) -> list[dict]:
    """One record per operation (one trial at one sweep point): its label,
    the digests of its trace.csv and certificate.txt, and the reasons it
    failed, given the certificates ``rederive`` returned."""
    ops = []
    for res in results:
        out = Path(res.out_dir)
        point = ("run" if out == out_root
                 else out.relative_to(out_root).as_posix())
        cert_file = out / "certificate.txt"
        cert_text = cert_file.read_text().splitlines()
        cert_digest = sha256(cert_file)
        for trial_dir in sorted(out.glob("trial_*")):
            label = trial_dir.name
            mine = [ln for ln in res.certificate_lines
                    if ln[0].split(" ", 1)[0] == label]
            again = [ln for ln in rederived[res.out_dir]
                     if ln[0].split(" ", 1)[0] == label]
            reasons = []
            if not mine:
                reasons.append("no certificate lines")
            if any(verdict == "FAIL" for _, verdict, _ in mine):
                reasons.append("certificate FAIL")
            if again != mine:
                reasons.append("re-derived certificate differs")
            if not set(render(mine)) <= set(cert_text):
                reasons.append("certificate.txt differs from the run")
            ops.append({"op": f"{point}/{label}",
                        "trace": sha256(trial_dir / "trace.csv"),
                        "certificate": cert_digest,
                        "reasons": reasons})
    return ops


def call_driver(job: dict, cfg: dict):
    from riskcal import experiment

    if job["driver"] == "sweep":
        return experiment.sweep(cfg, job["param"], job["grid"], job["out"])
    return experiment.run_experiment(cfg, job["out"])


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(HERE))
    import speed

    with speed.Probe() as probe:
        t0 = time.perf_counter_ns()
        sys.path.insert(0, str(Path.cwd() / "src"))
        from riskcal import experiment  # the set-up clock covers this import

        import proxies

        clock = proxies.Clock()
        proxies.install_clock(clock)
        tracer = None
        if job["trace"]:
            tracer = proxies.Tracer()
            proxies.install_layers(tracer)

        cfg = experiment.load_config(job["config"])
        out_root = Path(job["out"])
        c0 = time.perf_counter_ns()
        error = trace_text = None
        try:
            call_driver(job, cfg)
        except Exception as exc:  # the operation failed; report, do not crash
            error = f"{type(exc).__name__}: {exc}"
            trace_text = traceback.format_exc()
        c1 = time.perf_counter_ns()
        run_stats = ({k: list(v) for k, v in tracer.stats.items()}
                     if tracer else None)

        ops = []
        verify = []
        if error is None:
            try:
                # the re-derivation is short, so it is timed several times
                for _ in range(VERIFY_REPEATS):
                    v0 = time.perf_counter_ns()
                    rederived = rederive(clock.results)
                    verify.append((v0, time.perf_counter_ns()))
                ops = check_operations(clock.results, out_root, rederived)
            except Exception as exc:
                error = f"verify {type(exc).__name__}: {exc}"
                trace_text = traceback.format_exc()
        end = time.perf_counter_ns()

    import numpy as np

    timeline = speed.Timeline(probe.marks)
    # Per-step latency: the gaps between successive pulls within one loop
    # call, so trial and sweep-point boundaries never count as a step.
    gaps = [np.frombuffer(ts, dtype=np.int64) for ts in clock.loops]
    gaps = [(ts[:-1], ts[1:]) for ts in gaps if len(ts) > 1]
    raw_gaps = np.concatenate([b - a for a, b in gaps] or [[0]]) / 1e3
    ref_gaps = np.concatenate([timeline.reference_ns(a, b)
                               for a, b in gaps] or [[0]]) / 1e3
    first = clock.loops[0][0] if clock.loops and len(clock.loops[0]) else None

    steps = sum(len(ts) for ts in clock.loops)
    result = {
        "error": error,
        "traceback": trace_text,
        "steps": steps,
        "loops": len(clock.loops),
        "probes": len(probe.marks) // 2,
        "speed": timeline.mean_speed(t0, end),
        "call_s": (c1 - c0) / 1e9,
        "call_ref_s": timeline.reference_ns(c0, c1) / 1e9,
        "setup_s": (first - t0) / 1e9 if first is not None else None,
        "setup_ref_s": (timeline.reference_ns(t0, first) / 1e9
                        if first is not None else None),
        "verify_s": [(b - a) / 1e9 for a, b in verify],
        "verify_ref_s": [timeline.reference_ns(a, b) / 1e9
                         for a, b in verify],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "step_p50_us": float(np.percentile(raw_gaps, 50)),
        "step_p99_us": float(np.percentile(raw_gaps, 99)),
        "step_p50_ref_us": float(np.percentile(ref_gaps, 50)),
        "step_p99_ref_us": float(np.percentile(ref_gaps, 99)),
    }
    if tracer is not None:
        result["run_stats"] = run_stats
        result["stats"] = tracer.stats
        result["counts"] = tracer.counts
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
