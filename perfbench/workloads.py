"""The benchmark's workloads: experiment configs plus seeded input files.

Every workload is a closed loop: one process, one stream at a time. Each
``prepare`` writes everything the program reads into ``tmp`` before any
timing starts, and derives all randomness from ``seed``.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np


def _base(seed: int, steps: int, trials: int) -> dict:
    return {"schema_version": 1, "steps": steps, "trials": trials,
            "seed": seed}


def tabular_cqr(seed: int, tmp: Path) -> dict:
    cfg = _base(seed, steps=12_000, trials=4)
    cfg.update({
        "eval_window": [1001, 12_000],
        "stream": {"kind": "synthetic"},
        "model": {"kind": "linear_pinball", "lr": 2.0, "taus": [0.05, 0.95]},
        "constructor": {"kind": "cqr"},
        "losses": [{"kind": "binary", "r": 0.1}],
        "stretch": {"kind": "none"},
        "controller": {"kind": "single", "gamma": 0.05, "m": -2.0, "M": 2.0,
                       "B": 1.0},
    })
    return {"driver": "run", "config": cfg}


def image_multirisk(seed: int, tmp: Path) -> dict:
    cfg = _base(seed, steps=2_500, trials=2)
    cfg.update({
        "stream": {"kind": "image", "height": 64, "width": 64,
                   "shift_period": 500, "shift_factor": 2.0},
        "model": {"kind": "constant"},
        "constructor": {"kind": "image",
                        "heuristic": {"kind": "previous_residuals",
                                      "window": 5}},
        "losses": [{"kind": "image_miscoverage", "r": 0.2},
                   {"kind": "center_failure", "r": 0.1}],
        "stretch": {"kind": "exponential"},
        "controller": {"kind": "multi", "gamma": 0.05, "m": -5.0, "M": 5.0,
                       "B": [1.0, 1.0], "aggregation": "max",
                       "two_sided": True},
    })
    return {"driver": "run", "config": cfg}


REPLAY_STEPS = 12_000
REPLAY_WARMUP = 2_000
REPLAY_TAUS = (0.05, 0.95)


def write_replay_inputs(seed: int, tmp: Path, n: int = REPLAY_STEPS,
                        warmup: int = REPLAY_WARMUP):
    """An hourly series with level and variance shifts and three features,
    plus an "external" model's quantile predictions for it.

    The predictions come from an exponentially weighted mean and variance of
    past targets only, standardized with the warm-up statistics the CSV
    ingestion will use, so they are on the scale the calibration loop sees.
    """
    rng = np.random.default_rng(seed)
    seg = rng.integers(300, 1500, size=n // 300 + 1)
    starts = np.cumsum(seg)
    regime = np.searchsorted(starts, np.arange(n), side="right")
    level = np.cumsum(rng.normal(0.0, 5.0, size=regime.max() + 1))[regime]
    sigma = np.where(regime % 2 == 0, 1.0, 3.0)
    hour = np.arange(n) % 24
    daily = 2.0 * np.sin(2.0 * math.pi * hour / 24.0)
    ar = np.zeros(n)
    eps = rng.normal(size=n)
    for t in range(1, n):
        ar[t] = 0.6 * ar[t - 1] + eps[t]
    target = level + daily + sigma * ar
    f1 = level + rng.normal(0.0, 1.0, size=n)
    f2 = daily + rng.normal(0.0, 0.3, size=n)
    f3 = rng.normal(size=n)

    start = datetime(2021, 1, 1)
    series = tmp / "series.csv"
    with open(series, "w") as fh:
        fh.write("timestamp,target,f1,f2,f3\n")
        for t in range(n):
            ts = (start + timedelta(hours=t)).isoformat()
            fh.write(f"{ts},{float(target[t])!r},{float(f1[t])!r},"
                     f"{float(f2[t])!r},{float(f3[t])!r}\n")

    mean = np.empty(n)
    var = np.empty(n)
    m, v = float(target[0]), 1.0
    for t in range(n):
        mean[t], var[t] = m, v
        d = target[t] - m
        m += 0.05 * d
        v = 0.95 * v + 0.05 * d * d
    y_mean = target[:warmup].mean()
    y_std = target[:warmup].std()
    z = 1.6448536269514722  # standard normal 0.95 quantile
    preds = tmp / "predictions.csv"
    with open(preds, "w") as fh:
        fh.write(",".join(f"q_{tau}" for tau in REPLAY_TAUS) + "\n")
        for t in range(n):
            s = math.sqrt(var[t])
            lo = float((mean[t] - z * s - y_mean) / y_std)
            hi = float((mean[t] + z * s - y_mean) / y_std)
            fh.write(f"{lo!r},{hi!r}\n")
    return series, preds


def replay_sweep(seed: int, tmp: Path) -> dict:
    series, preds = write_replay_inputs(seed, tmp)
    cfg = _base(seed, steps=REPLAY_STEPS, trials=1)
    cfg.update({
        "eval_window": [REPLAY_WARMUP + 1, REPLAY_STEPS],
        "val_window": [REPLAY_WARMUP + 1, REPLAY_WARMUP + 2_000],
        "stream": {"kind": "csv", "path": str(series),
                   "timestamp_col": "timestamp", "target_col": "target",
                   "feature_cols": ["f1", "f2", "f3"],
                   "warmup": REPLAY_WARMUP},
        "model": {"kind": "replay", "path": str(preds),
                  "taus": list(REPLAY_TAUS)},
        "constructor": {"kind": "cqr"},
        "losses": [{"kind": "mc", "r": 0.11, "cap": 50}],
        "stretch": {"kind": "error_adaptive", "beta_score": 0.05,
                    "beta_loss": 0.1, "beta_low": "auto",
                    "beta_high": "auto"},
        "controller": {"kind": "single", "gamma": 0.05},
    })
    return {"driver": "sweep", "config": cfg, "param": "controller.gamma",
            "grid": [0.01, 0.02, 0.05, 0.1]}


def aci_baseline(seed: int, tmp: Path) -> dict:
    cfg = _base(seed, steps=8_000, trials=2)
    cfg.update({
        "eval_window": [1001, 8_000],
        "stream": {"kind": "synthetic"},
        "model": {"kind": "linear_pinball", "lr": 2.0, "taus": [0.05, 0.95]},
        "constructor": {"kind": "cqr"},
        "losses": [{"kind": "binary", "r": 0.1}],
        "stretch": {"kind": "none"},
        "controller": {"kind": "baseline_aci", "gamma": 0.005,
                       "window": 500},
    })
    return {"driver": "run", "config": cfg}


WORKLOADS = {
    "tabular-cqr": tabular_cqr,
    "image-multirisk": image_multirisk,
    "replay-sweep": replay_sweep,
    "aci-baseline": aci_baseline,
}


def prepare(name: str, seed: int, tmp: Path) -> dict:
    """Write the config (and any input files) into ``tmp``; return the job
    fields the child needs plus the number of operations one call makes."""
    spec = WORKLOADS[name](seed, tmp)
    cfg = spec.pop("config")
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    spec["config"] = str(path)
    spec["operations"] = cfg["trials"] * len(spec.get("grid", [None]))
    return spec
