"""Start-up weight: importing riskcal loads only the standard library and
numpy, a run loads scipy only when it builds the oracle model, and no run
loads numpy.ma (about 10 ms, which numpy's unique and quantile import).

Each probe runs in a fresh interpreter and compares ``sys.modules`` before
and after, since ``site`` may preload packages of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import riskcal
from riskcal.models import OracleModel

_SRC = str(Path(riskcal.__file__).resolve().parents[1])
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "riskcal"}

_IMPORT = """
import json, sys
before = set(sys.modules)
import riskcal, riskcal.cli, riskcal.experiment
print(json.dumps(sorted({name.partition(".")[0]
                         for name in set(sys.modules) - before})))
"""

# Runs each config in turn (a sweep when it names a grid) and prints, after
# each, the top-level modules loaded since the interpreter started, plus
# numpy.ma when it was loaded.
_RUNS = """
import json, sys
before = set(sys.modules)
import riskcal, riskcal.cli, riskcal.experiment
from riskcal.experiment import run_experiment, sweep
loaded = {}
for name, cfg, grid in json.loads(sys.argv[1]):
    if grid:
        sweep(cfg, "controller.gamma", grid, out_dir=name)
    else:
        run_experiment(cfg, out_dir=name)
    new = set(sys.modules) - before
    loaded[name] = sorted({m.partition(".")[0] for m in new}
                          | ({"numpy.ma"} & new))
print(json.dumps(loaded))
"""


def _config(**parts):
    cfg = {"schema_version": 1, "steps": 50, "trials": 1, "seed": 0,
           "stream": {"kind": "synthetic"},
           "model": {"kind": "linear_pinball"},
           "constructor": {"kind": "cqr"},
           "losses": [{"kind": "binary", "r": 0.1}],
           "stretch": {"kind": "none"},
           "controller": {"kind": "single", "gamma": 0.05}}
    cfg.update(parts)
    return cfg


_IMAGE = {"stream": {"kind": "image", "height": 8, "width": 8},
          "model": {"kind": "constant"}, "constructor": {"kind": "image"},
          "losses": [{"kind": "image_miscoverage", "r": 0.2},
                     {"kind": "center_failure", "r": 0.1}],
          "stretch": {"kind": "exponential"},
          "controller": {"kind": "multi", "gamma": 0.05, "m": -5.0,
                         "M": 5.0, "two_sided": True}}


def _python(tmp_path, script, *args) -> str:
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_stdlib_and_numpy(tmp_path):
    new = set(json.loads(_python(tmp_path, _IMPORT)))
    assert {"numpy", "riskcal"} <= new
    assert new <= _ALLOWED, sorted(new - _ALLOWED)


def test_runs_without_the_oracle_never_load_scipy(tmp_path):
    runs = [
        ["synthetic", _config(), None],
        ["image", _config(**_IMAGE), None],
        ["baseline", _config(
            val_window=[21, 50],
            controller={"kind": "baseline_aci", "gamma": 0.05, "window": 20,
                        "warmup": 5}), None],
        ["sweep", _config(val_window=[21, 50],
                          stretch={"kind": "score_adaptive",
                                   "beta_score": 0.1}), [0.05, 0.1]],
    ]
    loaded = json.loads(_python(tmp_path, _RUNS, json.dumps(runs)))
    assert set(loaded) == {name for name, _, _ in runs}
    # numpy.random's compiled modules register Cython runtime modules, so
    # a run is held to the one package it must not load
    for name, new in loaded.items():
        assert "scipy" not in new, name
        assert "numpy.ma" not in new, name


def test_oracle_run_loads_scipy(tmp_path):
    cfg = _config(stream={"kind": "known_quantile"},
                  model={"kind": "oracle"})
    loaded = json.loads(_python(tmp_path, _RUNS,
                                json.dumps([["oracle", cfg, None]])))
    assert "scipy" in loaded["oracle"]


# Runs the CLI on the config at argv[1] in an interpreter where scipy
# cannot be imported, as on an install without the 'oracle' extra.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
from riskcal.cli import main
sys.exit(main(["run", sys.argv[1], "--out", "out"]))
"""


def test_oracle_config_without_scipy_is_a_config_error(tmp_path):
    cfg = _config(stream={"kind": "known_quantile"},
                  model={"kind": "oracle"})
    (tmp_path / "oracle.json").write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, "oracle.json"], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: model.kind: "), proc.stderr
    assert "riskcal[oracle]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tau", [1e-12, 0.05, 0.1, 0.5, 0.9, 0.95,
                                 1.0 - 1e-12])
def test_oracle_z_is_ndtri_bit_for_bit(tau):
    model = OracleModel(lambda x: 0.0, lambda x: 1.0)
    got = model.predict(None, tau)
    assert np.float64(got).tobytes() == np.float64(ndtri(tau)).tobytes()
