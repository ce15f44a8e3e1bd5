"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Run from the root of a riskcal checkout. It runs a short ``aci-baseline``
experiment, checks that the gate passes it, then corrupts one
``theta_post`` value in an exported trace and, separately, one line of
``certificate.txt``. Each corruption must make ``fail_ratio`` positive.
Exits 0 when all three expectations hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def gate(clock, out: Path, reference: dict | None) -> tuple:
    """fail_ratio and failure lines of one finished run, as run.py judges."""
    import child
    import run

    ops = child.check_operations(clock.results, out,
                                 child.rederive(clock.results))
    attempted, failures = run.judge([{"ops": ops}], len(ops), reference)
    ratio = len(failures) / attempted if attempted else 1.0
    return ratio, failures, {o["op"]: o for o in ops}


def corrupt_theta_post(trace_csv: Path, row: int) -> None:
    lines = trace_csv.read_text().splitlines(keepends=True)
    col = lines[0].strip().split(",").index("theta_post")
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = format(float(cells[col]) + 1e-3, ".17g")
    lines[row] = ",".join(cells) + "\n"
    trace_csv.write_text("".join(lines))


def corrupt_certificate_line(cert: Path) -> None:
    lines = cert.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(": PASS", ": FAIL", 1)
    cert.write_text("".join(lines))


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "riskcal" / "__init__.py").is_file():
        print("perfbench selftest: run from the root of a riskcal checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import proxies
    import workloads
    from riskcal import experiment

    tmp = root / ".perfbench" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        job = workloads.prepare("aci-baseline", 0, tmp)
        cfg = experiment.load_config(job["config"])
        cfg.update({"steps": 2_000, "trials": 2, "eval_window": [501, 2_000]})
        clock = proxies.Clock()
        proxies.install_clock(clock)
        out = tmp / "out"
        experiment.run_experiment(cfg, out)

        checks = []
        ratio, failures, reference = gate(clock, out, None)
        checks.append(("clean run", ratio == 0.0, ratio, failures))

        trace = out / "trial_001" / "trace.csv"
        saved = trace.read_bytes()
        corrupt_theta_post(trace, row=100)
        ratio, failures, _ = gate(clock, out, reference)
        checks.append(("theta_post corrupted", ratio > 0.0, ratio, failures))
        trace.write_bytes(saved)

        cert = out / "certificate.txt"
        corrupt_certificate_line(cert)
        ratio, failures, _ = gate(clock, out, reference)
        checks.append(("certificate line corrupted", ratio > 0.0, ratio,
                       failures))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ok = True
    for name, passed, ratio, failures in checks:
        ok &= passed
        print(f"{'ok ' if passed else 'BAD'} {name}: fail_ratio {ratio:g}")
        for line in failures:
            print(f"      {line}")
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
