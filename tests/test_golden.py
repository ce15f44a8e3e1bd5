"""Golden artifacts: the sha256 of every file a small run exports.

One config per control path the runner has: the single-risk controller with
the interval layout, with the set-size layout, and with error-adaptive
stretching and "auto" bounds; the multi-risk controller two-sided and
one-sided; and the window-quantile baseline. A two-point sweep covers the CSV
stream with replayed predictions. The models are the oracle, the constant
and the replay model, whose outputs do not go through BLAS, so the digests
do not depend on the BLAS build. The synthetic, known-quantile and image
generators are pinned item by item as well. A change that alters any
exported byte or generated item fails here; a deliberate change must
re-record the digests and say why. The demos' standard output is pinned the
same way.
"""

import hashlib
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from riskcal.experiment import run_experiment, sweep
from riskcal.streams import (ImageStreamConfig, KnownQuantileConfig,
                             KnownQuantileStream, SyntheticConfig,
                             image_stream, synthetic_stream)


def _config(steps, controller, **sections):
    cfg = {
        "schema_version": 1,
        "steps": steps,
        "trials": 1,
        "seed": 0,
        "stream": {"kind": "known_quantile"},
        "model": {"kind": "oracle"},
        "constructor": {"kind": "cqr"},
        "losses": [{"kind": "binary", "r": 0.1}],
        "stretch": {"kind": "none"},
        "controller": controller,
    }
    cfg.update(sections)
    return cfg


_IMAGE = {
    "stream": {"kind": "image", "shift_period": 300, "shift_factor": 2.0,
               "frame_corr": 0.7},
    "model": {"kind": "constant"},
    "constructor": {"kind": "image",
                    "heuristic": {"kind": "previous_residuals", "window": 5}},
    "stretch": {"kind": "exponential"},
}
_TWO_IMAGE_LOSSES = [{"kind": "image_miscoverage", "r": 0.2},
                     {"kind": "center_failure", "r": 0.1}]

CONFIGS = {
    # a narrow [m, M]: starts below m, and both safeguards fire often
    "single_interval": _config(
        2000, {"kind": "single", "gamma": 0.05, "m": -0.02, "M": 0.15,
               "B": 1.0, "theta_init": -0.05},
        trials=2, eval_window=[501, 2000]),
    "single_size": _config(
        1000, {"kind": "single", "gamma": 0.05, "m": -5.0, "M": 5.0,
               "B": 1.0},
        losses=[{"kind": "image_miscoverage", "r": 0.2}], **_IMAGE),
    "single_error_adaptive_auto": _config(
        2000, {"kind": "single", "gamma": 0.05, "m": -2.0, "M": 2.0},
        losses=[{"kind": "mc", "r": 0.11, "cap": 50}],
        stretch={"kind": "error_adaptive", "beta_score": 0.05,
                 "beta_loss": 0.1, "beta_low": "auto", "beta_high": "auto"}),
    "multi_two_sided": _config(
        1000, {"kind": "multi", "gamma": 0.05, "m": -5.0, "M": 5.0,
               "B": [1.0, 1.0], "aggregation": "max", "two_sided": True},
        losses=_TWO_IMAGE_LOSSES, **_IMAGE),
    "multi_one_sided": _config(
        1000, {"kind": "multi", "gamma": [0.05, 0.1], "m": -5.0, "M": 5.0,
               "B": 1.0, "aggregation": "mean", "two_sided": False},
        losses=_TWO_IMAGE_LOSSES, **_IMAGE),
    "baseline_aci": _config(
        2000, {"kind": "baseline_aci", "gamma": 0.05, "window": 300},
        eval_window=[11, 2000]),
}

DIGESTS = {
    "baseline_aci": {
        "certificate.txt":
            "0f65d95f29c429f76efa110849c8f266dae53085e3b3645b9a9eb3c18e05db8b",
        "trial_000/trace.csv":
            "56890a914968903d31d7405b3a50b29ddb2cad972234b339a3435ac7e3962f58",
        "trial_000/report.json":
            "168893d8dfcea9fc8c51c8d0d97c911a1e4385aa853d275531a8499fa2bf0275",
    },
    "multi_one_sided": {
        "certificate.txt":
            "75d687b9c5228677e8a6a665b4d0d7a45a087f8e5debcfcbd099fa2ab18c373e",
        "trial_000/trace.csv":
            "9e09987dde3cc41b226f35f665a34c3ee8b041d1253317f15531b193aab66bd5",
        "trial_000/report.json":
            "0acb75fc1758185a61736aa79f00aaa7c3d449f0f53b86aedbead3e4417fdeb7",
    },
    "multi_two_sided": {
        "certificate.txt":
            "61bca843f942d968179bbac7d5d1bec836ae540c1d7c65758000fc98c3d267cd",
        "trial_000/trace.csv":
            "824b681bb06997681af81ebc53e13faefd5a4975a5b9125cc4230d276db6ef5f",
        "trial_000/report.json":
            "c94bf2579482bf7c2243ce63e00d59e0a67de5b7d038bb19198b1cfcef9cfc47",
    },
    "single_error_adaptive_auto": {
        "certificate.txt":
            "49a92985429d66ad637c19a3c9f4d47f0a627ea76c0a05fd8897ca7d00ee1df1",
        "trial_000/trace.csv":
            "32d5bcba6c6e90072c822b38ed924044b8ce751ae579aa808d79b62ee5253350",
        "trial_000/report.json":
            "65a86c458177a8ae34cd37d0b422a16f26289d3d12eb9378b28121119b878ba8",
    },
    "single_interval": {
        "certificate.txt":
            "475ca27ccbf26f2635f0acda7eb0797442bf233db827ff8a29b7f2ff56da6635",
        "trial_000/trace.csv":
            "7333442384c3e97cbd2138ba2e1bdd1334272adc5752960cedc4e8af342b0538",
        "trial_000/report.json":
            "d6f53ec86684c7ec9d8c9023f357218321ba4662d62e3c9ca92d318121b2912d",
        "trial_001/trace.csv":
            "b74c626c0eb7b35f89bf3282caf0a5c051d06241140c029ddfb0491b297771a5",
        "trial_001/report.json":
            "7afc8b340185bb538b0b57db31d69e9dbfb4905d06697f9b8664297c1535b650",
    },
    "single_size": {
        "certificate.txt":
            "1338bdf3e5deabe892af8f23524a3b78d21971997c00112ff4343d1b7b1f0ae7",
        "trial_000/trace.csv":
            "ff60d87b20d6d0f8d9567f46bb659c069fd5449d91ed59c723a77791ed878c85",
        "trial_000/report.json":
            "eb62770de202dc83da71b6d2f6113bf369b2c34583efc2a5d42b3e61e0c28734",
    },
}


def _digests(out):
    files = ["certificate.txt"]
    for trial in sorted(p.name for p in out.glob("trial_*")):
        files += [f"{trial}/trace.csv", f"{trial}/report.json"]
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in files}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_exported_bytes_match_golden_digests(name, tmp_path):
    run_experiment(CONFIGS[name], tmp_path)
    assert _digests(tmp_path) == DIGESTS[name]


def _write_replay_inputs(tmp_path, n=1500, warmup=300):
    """A seeded hourly series with a level shift, and an external model's
    quantile predictions for it on the scale the ingestion standardizes to."""
    rng = np.random.default_rng(7)
    level = np.where(np.arange(n) < n // 2, 0.0, 4.0)
    daily = np.sin(2.0 * math.pi * (np.arange(n) % 24) / 24.0)
    noise = rng.normal(size=n) * np.where(np.arange(n) % 500 < 250, 1.0, 2.0)
    target = level + daily + noise
    feature = daily + rng.normal(0.0, 0.3, size=n)
    start = datetime(2021, 1, 1)
    series = tmp_path / "series.csv"
    with open(series, "w") as fh:
        fh.write("timestamp,target,f1\n")
        for t in range(n):
            ts = (start + timedelta(hours=t)).isoformat()
            fh.write(f"{ts},{float(target[t])!r},{float(feature[t])!r}\n")
    y_mean, y_std = target[:warmup].mean(), target[:warmup].std()
    preds = tmp_path / "predictions.csv"
    with open(preds, "w") as fh:
        fh.write("q_0.05,q_0.95\n")
        for t in range(n):
            lo = float((daily[t] - 1.6 - y_mean) / y_std)
            hi = float((daily[t] + 1.6 - y_mean) / y_std)
            fh.write(f"{lo!r},{hi!r}\n")
    return series, preds


SWEEP_DIGESTS = {
    "ranking.csv":
        "bcf69dd215d15507c75e67bdf24f8f19ed57e1268269b68efeb192b505dc70cc",
    "sweep.json":
        "bb08ff57258d91f7015f46ddb271a2d83ad0361b41f230621ec75bd420997fe9",
    "sweep_controller_gamma_0.02/certificate.txt":
        "49a92985429d66ad637c19a3c9f4d47f0a627ea76c0a05fd8897ca7d00ee1df1",
    "sweep_controller_gamma_0.02/trial_000/trace.csv":
        "ba963b0848c57841a1c3f8f8bc13c6ba376bc6b46ee706bfc5496b3e1323b786",
    "sweep_controller_gamma_0.02/trial_000/report.json":
        "7c267d3f21c1f26bf306c9e12101bae553d1ca79f373f9c2bd35c5c56cf23fe1",
    "sweep_controller_gamma_0.1/certificate.txt":
        "49a92985429d66ad637c19a3c9f4d47f0a627ea76c0a05fd8897ca7d00ee1df1",
    "sweep_controller_gamma_0.1/trial_000/trace.csv":
        "1adb3f6b41e6fe9bda7238df174a298abd3eccc0b5bbb9f3355008f98f7d2d8f",
    "sweep_controller_gamma_0.1/trial_000/report.json":
        "abce362f645f13a4590a2ceda85e92c8726b7fded03dc2a6afac2c99980fc63d",
}


def test_csv_replay_sweep_matches_golden_digests(tmp_path):
    series, preds = _write_replay_inputs(tmp_path)
    cfg = _config(
        1500, {"kind": "single", "gamma": 0.05},
        trials=1, eval_window=[301, 1500], val_window=[301, 900],
        stream={"kind": "csv", "path": str(series),
                "timestamp_col": "timestamp", "target_col": "target",
                "feature_cols": ["f1"], "warmup": 300},
        model={"kind": "replay", "path": str(preds), "taus": [0.05, 0.95]},
        losses=[{"kind": "mc", "r": 0.11, "cap": 50}],
        stretch={"kind": "error_adaptive", "beta_score": 0.05,
                 "beta_loss": 0.1, "beta_low": "auto", "beta_high": "auto"})
    out = tmp_path / "out"
    sweep(cfg, "controller.gamma", [0.02, 0.1], out)
    files = ["ranking.csv", "sweep.json"]
    for point in sorted(p.name for p in out.glob("sweep_*")):
        files += [f"{point}/{name}" for name in _digests(out / point)]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in files}
    assert got == SWEEP_DIGESTS


def _items_digest(items):
    """sha256 over every field of every item, each as float64 bytes."""
    h = hashlib.sha256()
    for item in items:
        for value in item:
            h.update(np.asarray(value, dtype=float).tobytes())
    return h.hexdigest()


# Generator output, item by item: the draws behind every synthetic workload.
# Each synthetic stream crosses several group boundaries (about every 500
# steps), so the schedule, beta and omega draws are pinned too. Unlike the
# digests above, the 5-feature synthetic ones take beta.x through the BLAS
# dot product, whose summation order a different BLAS build may change.
STREAMS = {
    "synthetic_p1_seed0": lambda: synthetic_stream(
        SyntheticConfig(seed=0, n_features=1), 2000),
    "synthetic_p1_seed1": lambda: synthetic_stream(
        SyntheticConfig(seed=1, n_features=1), 2000),
    "synthetic_p5_seed0": lambda: synthetic_stream(
        SyntheticConfig(seed=0, n_features=5), 2000),
    "synthetic_p5_seed1": lambda: synthetic_stream(
        SyntheticConfig(seed=1, n_features=5), 2000),
    "known_quantile_seed0": lambda: KnownQuantileStream(
        KnownQuantileConfig(seed=0)).generate(1000),
    "known_quantile_seed1": lambda: KnownQuantileStream(
        KnownQuantileConfig(seed=1, n_features=3)).generate(1000),
    "image_seed0": lambda: image_stream(
        ImageStreamConfig(seed=0, shift_period=50, shift_factor=2.0), 200),
    "image_seed1": lambda: image_stream(
        ImageStreamConfig(seed=1, height=8, width=12, frame_corr=0.7), 200),
}

STREAM_DIGESTS = {
    "image_seed0":
        "94b5fdc1e1d93e017dd8d75e4a5265027e4c023dccc4efb925340c9b7a1c5e9a",
    "image_seed1":
        "2e09dd5c734afb7c1626181e70bf8ad6f4a38ba8dcd195b555fe91b002b15471",
    "known_quantile_seed0":
        "11628574f38bd425cd0afd1ca03fcfda359b64864716258cec775ea03726db05",
    "known_quantile_seed1":
        "9f831634efb9477b7cae50343c00fca62878309b14f2e4c0867a59b924701a11",
    "synthetic_p1_seed0":
        "a06b88d2469ed519a62d3a665ff4d8314dd7b6e6f8692bd2a82ee6b0e860180e",
    "synthetic_p1_seed1":
        "3711408824402b2dddc4be95098f666569c2b3a4d92560c3d7220a01e05afb52",
    "synthetic_p5_seed0":
        "021b2ce27f4f2454b3f5804a8b33a61f216da9ac12e62923d195374cf9186398",
    "synthetic_p5_seed1":
        "489d8263d6067768ebfb1cb9c3ae39a1aaf7d16e44bab077ed14c971947dd88d",
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_items_match_golden_digests(name):
    assert _items_digest(STREAMS[name]()) == STREAM_DIGESTS[name]


# The sha256 of each demo's standard output. Demos 01-03, 05 and 06 train
# the linear pinball model on the 5-feature synthetic stream, whose dot
# products go through BLAS, so their digests depend on the BLAS build.
_DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_DIGESTS = {
    "01_coverage_control.py":
        "2b8bdbdcc53f5024a890311ba0c4dba46ff6cc2c5588b5209a102308cb172fa4",
    "02_stretching_functions.py":
        "c27b5d56467e79e573e187bdab621ed32ec61840ec4585d44dceceda1a521d84",
    "03_miscoverage_counter.py":
        "9732d3d6d78cd4569c0471da92b160093cbfdeae7bf5621133794006a6c8d54c",
    "04_image_multi_risk.py":
        "a468d60afbfdb2ad03eb4a5bf060f3514f1897539e5bdc5832c640fb9dbba7c2",
    "05_window_quantile_baseline.py":
        "a247ccb34b3aab071143feaabf5fc8e768f75f37fdb03ba5a8cf6e58d3bcd322",
    "06_gamma_tradeoff.py":
        "6efdb2dbbe0cde633c1b44b5da7e9edf0e58e5365705b68c552a28317d708f98",
    "07_experiment_runner.py":
        "ca31175c57d4089481aaf179392d21cafecf0d8eef80b324a59e81adf79ff50f",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in _DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_matches_golden_digest(name, tmp_path):
    import riskcal
    src = str(Path(riskcal.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(_DEMOS / name)], env=env,
                         cwd=tmp_path, capture_output=True, check=True,
                         timeout=300).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[name]
