import dataclasses
import json
import math
import tempfile
import tracemalloc
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riskcal import baseline
from riskcal.cli import main as cli_main
from riskcal.engine import RiskSpec, StreamTrace, risk_bound
from riskcal.experiment import (ConfigError, certificate_passed,
                                read_trace_csv, recompute_certificate,
                                run_experiment, run_trial, sweep,
                                validate_config, write_trace_csv)


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "steps": 2000,
        "trials": 2,
        "seed": 0,
        "stream": {"kind": "known_quantile"},
        "model": {"kind": "oracle"},
        "constructor": {"kind": "cqr"},
        "losses": [{"kind": "binary", "r": 0.1}],
        "stretch": {"kind": "none"},
        "controller": {"kind": "single", "gamma": 0.05, "m": -2.0, "M": 2.0,
                       "B": 1.0},
    }
    cfg.update(overrides)
    cfg.setdefault("eval_window", [cfg["steps"] // 4 + 1, cfg["steps"]])
    return cfg


def write_series(path, n=400):
    """A seeded hourly CSV series: timestamp, target, one feature."""
    rng = np.random.default_rng(0)
    start = datetime(2021, 1, 1)
    with open(path, "w") as fh:
        fh.write("timestamp,target,f1\n")
        for t in range(n):
            ts = (start + timedelta(hours=t)).isoformat()
            fh.write(f"{ts},{float(rng.normal())!r},{float(rng.normal())!r}\n")
    return path


def write_predictions(path, n=400, taus=(0.05, 0.95)):
    with open(path, "w") as fh:
        fh.write(",".join(f"q_{tau}" for tau in taus) + "\n")
        for _ in range(n):
            fh.write(",".join(str(4.0 * tau - 2.0) for tau in taus) + "\n")
    return path


def csv_config(tmp_path, **overrides):
    """A CSV stream with replayed predictions, MC loss and error-adaptive
    stretching with "auto" bounds, whose probe reads the stream too."""
    cfg = base_config(
        steps=400, trials=3, eval_window=[101, 400], val_window=[101, 300],
        stream={"kind": "csv", "path": str(write_series(tmp_path / "s.csv")),
                "timestamp_col": "timestamp", "target_col": "target",
                "feature_cols": ["f1"], "warmup": 100},
        model={"kind": "replay",
               "path": str(write_predictions(tmp_path / "p.csv")),
               "taus": [0.05, 0.95]},
        losses=[{"kind": "mc", "r": 0.11, "cap": 50}],
        stretch={"kind": "error_adaptive", "beta_score": 0.05,
                 "beta_loss": 0.1, "beta_low": "auto", "beta_high": "auto"},
        controller={"kind": "single", "gamma": 0.05})
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            validate_config(base_config(trials=0))

    def test_unknown_stream_kind_names_field(self):
        cfg = base_config(stream={"kind": "video"})
        with pytest.raises(ConfigError, match="stream.kind"):
            validate_config(cfg)

    def test_oracle_requires_known_quantile(self):
        cfg = base_config(stream={"kind": "synthetic"})
        with pytest.raises(ConfigError, match="model.kind"):
            validate_config(cfg)

    def test_window_must_fit_steps(self):
        with pytest.raises(ConfigError, match="eval_window"):
            validate_config(base_config(eval_window=[1, 99999]))

    def test_multi_needs_matching_losses(self):
        cfg = base_config(
            controller={"kind": "multi", "gamma": [0.05], "m": [-1.0],
                        "M": [1.0], "B": [1.0, 1.0]},
            losses=[{"kind": "binary", "r": 0.1},
                    {"kind": "binary", "r": 0.2}])
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_missing_loss_target(self):
        with pytest.raises(ConfigError, match="losses"):
            validate_config(base_config(losses=[{"kind": "binary"}]))

    @pytest.mark.parametrize("kind", ["class_threshold", "class_cumulative"])
    def test_classification_constructors_not_in_config(self, kind):
        # no config model gives class probabilities, so these could never run
        with pytest.raises(ConfigError, match="constructor.kind"):
            validate_config(base_config(constructor={"kind": kind}))

    def test_adaptive_stretch_needs_a_single_risk(self):
        cfg = base_config(
            losses=[{"kind": "binary", "r": 0.1}, {"kind": "mc", "r": 0.2}],
            controller={"kind": "multi", "gamma": 0.05, "m": -2.0, "M": 2.0,
                        "B": [1.0, 50.0]},
            stretch={"kind": "error_adaptive", "beta_score": 0.05,
                     "beta_loss": 0.1, "beta_low": -1.0, "beta_high": 1.0})
        with pytest.raises(ConfigError, match="stretch"):
            validate_config(cfg)


class TestRunExperiment:
    def test_oracle_run_controls_coverage_and_passes(self, tmp_path):
        cfg = base_config(trials=3)
        res = run_experiment(cfg, tmp_path)
        assert res.certificate_passed
        spec = RiskSpec(r=0.1, gamma=0.05, m=-2.0, M=2.0, B=1.0)
        assert abs(res.aggregate["coverage"]["mean"] - 0.9) <= \
            risk_bound(spec, 1500)
        for name in ("aggregate.json", "certificate.txt", "config.json"):
            assert (tmp_path / name).exists()
        assert (tmp_path / "trial_000" / "trace.csv").exists()
        assert (tmp_path / "trial_002" / "report.json").exists()

    def test_identical_config_gives_byte_identical_traces(self, tmp_path):
        cfg = base_config(trials=1, steps=500)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        ta = (tmp_path / "a" / "trial_000" / "trace.csv").read_bytes()
        tb = (tmp_path / "b" / "trial_000" / "trace.csv").read_bytes()
        assert ta == tb

    def test_certificate_recomputes_from_exported_traces(self, tmp_path):
        cfg = base_config(trials=2, steps=800)
        res = run_experiment(cfg, tmp_path)
        redone = recompute_certificate(tmp_path)
        assert [(n, v) for n, v, _ in redone] == \
            [(n, v) for n, v, _ in res.certificate_lines]

    def test_tampered_trace_fails_certificate(self, tmp_path):
        cfg = base_config(trials=1, steps=300)
        run_experiment(cfg, tmp_path)
        trace_path = tmp_path / "trial_000" / "trace.csv"
        lines = trace_path.read_text().splitlines()
        parts = lines[100].split(",")
        parts[2] = "99.0"  # corrupt theta_pre
        lines[100] = ",".join(parts)
        trace_path.write_text("\n".join(lines) + "\n")
        redone = recompute_certificate(tmp_path)
        assert not certificate_passed(redone)

    def test_degenerate_target_reports_not_guaranteed(self, tmp_path):
        cfg = base_config(trials=1, steps=200)
        cfg["losses"][0]["r"] = 0.0
        res = run_experiment(cfg, tmp_path)
        verdicts = {n: v for n, v, _ in res.certificate_lines}
        assert verdicts["trial_000 loss_contract"] == "NOT_GUARANTEED"
        # informational bound lines cannot fail the run
        assert res.certificate_passed

    def test_mc_controlled_run_keeps_coverage(self, tmp_path):
        cfg = base_config(
            steps=4000, trials=2, eval_window=[1001, 4000],
            stream={"kind": "synthetic"},
            model={"kind": "linear_pinball", "lr": 2.0, "taus": [0.05, 0.95]},
            losses=[{"kind": "mc", "r": 1.0 / 9.0, "cap": 50}],
            controller={"kind": "single", "gamma": 0.05, "m": -9999.0,
                        "M": 9999.0, "B": 50.0},
        )
        res = run_experiment(cfg, tmp_path)
        for trial in res.trials:
            assert trial.report["coverage"] >= 1.0 - 1.0 / 9.0 - 1e-12

    def test_multi_risk_image_run(self, tmp_path):
        cfg = base_config(
            steps=1500, trials=1, eval_window=[501, 1500],
            stream={"kind": "image", "shift_period": 300,
                    "shift_factor": 2.0, "frame_corr": 0.7},
            model={"kind": "constant"},
            constructor={"kind": "image",
                         "heuristic": {"kind": "previous_residuals",
                                       "window": 5}},
            stretch={"kind": "exponential"},
            losses=[{"kind": "image_miscoverage", "r": 0.2},
                    {"kind": "center_failure", "r": 0.1}],
            controller={"kind": "multi", "gamma": 0.05, "m": -5.0, "M": 5.0,
                        "B": 1.0, "aggregation": "max", "two_sided": True},
        )
        res = run_experiment(cfg, tmp_path)
        assert res.certificate_passed
        names = {n for n, _, _ in res.certificate_lines}
        assert "trial_000 upper_risk_bound" in names
        assert "trial_000 two_sided_risk_bound" in names
        assert "mean_loss_per_risk" in res.trials[0].report

    def test_auto_stretch_bounds_resolved_per_trial(self, tmp_path):
        cfg = base_config(
            steps=600, trials=1,
            stretch={"kind": "error_adaptive", "beta_score": 0.05,
                     "beta_loss": 0.15, "beta_low": "auto",
                     "beta_high": "auto"},
        )
        res = run_experiment(cfg, tmp_path)
        assert res.certificate_passed

    def test_auto_stretch_bounds_rejected_on_image_stream(self, tmp_path):
        cfg = base_config(
            steps=400, trials=1,
            stream={"kind": "image"},
            model={"kind": "constant"},
            constructor={"kind": "image"},
            losses=[{"kind": "image_miscoverage", "r": 0.2}],
            stretch={"kind": "error_adaptive", "beta_score": 0.05,
                     "beta_low": "auto", "beta_high": "auto"},
            controller={"kind": "single", "gamma": 0.05, "m": -5.0, "M": 5.0,
                        "B": 1.0},
        )
        with pytest.raises(ConfigError, match="auto"):
            run_experiment(cfg, tmp_path)

    def test_one_risk_multi_updates_adaptive_stretch(self, tmp_path):
        stretch = {"kind": "error_adaptive", "beta_score": 0.05,
                   "beta_loss": 0.1, "beta_low": -1.0, "beta_high": 1.0}
        controller = {"gamma": 0.05, "m": -2.0, "M": 2.0, "B": 1.0}
        single = run_experiment(base_config(
            trials=1, steps=500, stretch=stretch,
            controller={"kind": "single", **controller}), tmp_path / "s")
        multi_cfg = base_config(
            trials=1, steps=500, stretch=stretch,
            controller={"kind": "multi", "two_sided": True, **controller})
        multi = run_experiment(multi_cfg, tmp_path / "m")
        frozen_cfg = base_config(
            trials=1, steps=500, stretch={"kind": "none"},
            controller={"kind": "multi", "two_sided": True, **controller})
        s = read_trace_csv(tmp_path / "s" / "trial_000" / "trace.csv")
        # a k-risk trace.csv holds the set size, not its endpoints
        m, f = (run_trial(validate_config(cfg), 0)
                for cfg in (multi_cfg, frozen_cfg))
        # lambda moves exactly as in the single-risk controller
        np.testing.assert_array_equal(m.theta_post[:, 0], s.theta_post)
        np.testing.assert_array_equal(m.hi, s.hi)
        assert not np.array_equal(m.hi, f.hi)
        assert multi.certificate_passed

    def test_baseline_run(self, tmp_path):
        cfg = base_config(
            steps=3000, trials=1, eval_window=[501, 3000],
            controller={"kind": "baseline_aci", "gamma": 0.05, "alpha": 0.1,
                        "window": 300},
        )
        res = run_experiment(cfg, tmp_path)
        assert res.certificate_passed
        assert abs(res.trials[0].report["coverage"] - 0.9) < 0.05


class TestOneWalkPerCertificate:
    """Every line of a trace's certificate comes from one walk of its rows
    in ``engine._spans`` chunks, for every controller kind."""

    @pytest.mark.parametrize("overrides, line", [
        ({}, "theta_bound"),
        ({"stream": {"kind": "image"}, "model": {"kind": "constant"},
          "constructor": {"kind": "image"},
          "losses": [{"kind": "image_miscoverage", "r": 0.2},
                     {"kind": "center_failure", "r": 0.1}],
          "controller": {"kind": "multi", "gamma": 0.05, "m": -5.0, "M": 5.0,
                         "B": 1.0, "aggregation": "max", "two_sided": True}},
         "two_sided_risk_bound"),
        ({"controller": {"kind": "baseline_aci", "gamma": 0.05,
                         "alpha": 0.1, "window": 50}}, "alpha_recursion"),
    ], ids=["single", "two-sided-multi", "baseline"])
    def test_one_walk(self, overrides, line):
        from unittest import mock

        from riskcal import engine
        from riskcal.experiment import certificate_for_trace

        rc = validate_config(base_config(steps=200, trials=1, **overrides))
        trace = run_trial(rc, 0)
        with mock.patch.object(engine, "_spans", wraps=engine._spans) as spans:
            lines = certificate_for_trace(trace, rc, "trial_000")
        assert spans.call_count == 1
        assert f"trial_000 {line}" in [name for name, _, _ in lines]


class TestArtifacts:
    def test_reports_csv_written(self, tmp_path):
        cfg = base_config(trials=2, steps=400)
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "reports.csv").read_text().splitlines()
        assert lines[0].startswith("trial,coverage,mc_risk,msl")
        assert len(lines) == 3

    def test_interrupt_flushes_partial_results(self, tmp_path, monkeypatch):
        import riskcal.experiment as ex
        cfg = base_config(trials=3, steps=300)
        real_run_trial = ex.run_trial
        calls = {"n": 0}

        def flaky(cfg_, i):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real_run_trial(cfg_, i)

        monkeypatch.setattr(ex, "run_trial", flaky)
        with pytest.raises(KeyboardInterrupt):
            ex.run_experiment(cfg, tmp_path)
        # two completed trials were flushed before the interrupt surfaced
        assert (tmp_path / "aggregate.json").exists()
        assert (tmp_path / "certificate.txt").exists()
        lines = (tmp_path / "reports.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 trials

    def test_replay_model_config(self, tmp_path):
        preds = tmp_path / "preds.csv"
        with open(preds, "w") as fh:
            fh.write("q_0.05,q_0.95\n")
            for _ in range(300):
                fh.write("-2.0,4.0\n")
        cfg = base_config(
            steps=300, trials=1,
            model={"kind": "replay", "path": str(preds),
                   "taus": [0.05, 0.95]},
        )
        res = run_experiment(cfg, tmp_path / "out")
        assert res.certificate_passed

    def test_image_loss_mask_from_config(self, tmp_path):
        mask = [[1] * 16 for _ in range(16)]
        mask[0][0] = 0
        cfg = base_config(
            steps=300, trials=1,
            stream={"kind": "image"},
            model={"kind": "constant"},
            constructor={"kind": "image"},
            losses=[{"kind": "image_miscoverage", "r": 0.2, "mask": mask}],
            controller={"kind": "single", "gamma": 0.05, "m": -5.0, "M": 5.0,
                        "B": 1.0},
            stretch={"kind": "exponential"},
        )
        res = run_experiment(cfg, tmp_path)
        assert res.certificate_passed


class TestReadOnce:
    @pytest.fixture
    def reads(self, monkeypatch):
        """The stream.warmup of every CSV ingestion, in call order."""
        import riskcal.experiment as ex
        calls = []
        real = ex.csv_ingest

        def counting(sc):
            calls.append(sc.warmup)
            return real(sc)

        monkeypatch.setattr(ex, "csv_ingest", counting)
        return calls

    def test_run_reads_the_stream_once(self, tmp_path, reads):
        res = run_experiment(csv_config(tmp_path), tmp_path / "out")
        assert len(res.trials) == 3 and res.certificate_passed
        assert reads == [100]

    def test_each_run_reads_again(self, tmp_path, reads):
        cfg = csv_config(tmp_path, trials=1)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert reads == [100, 100]

    def test_gamma_sweep_reads_the_stream_once(self, tmp_path, reads):
        sweep(csv_config(tmp_path, trials=1), "controller.gamma",
              [0.02, 0.05, 0.1], tmp_path / "sw")
        assert reads == [100]

    def test_stream_sweep_reads_once_per_point(self, tmp_path, reads):
        sweep(csv_config(tmp_path, trials=2), "stream.warmup",
              [50, 100, 150], tmp_path / "sw")
        assert reads == [50, 100, 150]

    def test_trial_alone_reads_the_stream_once(self, tmp_path, reads):
        # the auto-stretch probe and the trial iterate one ingested stream
        trace = run_trial(validate_config(csv_config(tmp_path)), 0)
        assert len(trace) == 400
        assert reads == [100]

    def test_shared_rows_are_read_only(self, tmp_path, monkeypatch):
        import riskcal.experiment as ex
        seen = []

        class Scribbler(ex.ConstantModel):
            def update(self, x, y):
                seen.append(float(x[0]))
                x[0] = 0.0

        monkeypatch.setattr(ex, "ConstantModel", Scribbler)
        cfg = csv_config(tmp_path, model={"kind": "constant"},
                         stretch={"kind": "none"})
        with pytest.raises(ValueError, match="read-only"):
            run_experiment(cfg, tmp_path / "out")
        assert len(seen) == 1  # the first write failed; nothing changed
        clean = ex.csv_ingest(
            ex.CsvStreamConfig(**ex.validate_config(cfg).stream.fields))
        assert float(clean.x[0, 0]) == seen[0]


class TestReplayReadOnce:
    @pytest.fixture
    def loads(self, monkeypatch):
        """The path of every replay file load, in call order."""
        import riskcal.experiment as ex
        calls = []

        class Counting(ex.ReplayModel):
            @classmethod
            def from_csv(cls, path):
                calls.append(path)
                return super().from_csv(path)

        monkeypatch.setattr(ex, "ReplayModel", Counting)
        return calls

    @staticmethod
    def _config(tmp_path, **overrides):
        """csv_config with 1,200 distinct replay rows for 400-step trials,
        so a trial that did not start at row 0 would read other rows."""
        preds = tmp_path / "rows.csv"
        with open(preds, "w") as fh:
            fh.write("q_0.05,q_0.95\n")
            for t in range(1200):
                fh.write(f"{-2.0 - 1e-3 * t!r},{2.0 + 1e-3 * t!r}\n")
        return csv_config(tmp_path, model={"kind": "replay",
                                           "path": str(preds),
                                           "taus": [0.05, 0.95]},
                          **overrides)

    def test_run_loads_once_and_each_trial_starts_at_row_0(self, tmp_path,
                                                           loads):
        cfg = self._config(tmp_path)
        res = run_experiment(cfg, tmp_path / "out")
        assert loads == [cfg["model"]["path"]]
        # the stream is the file, so only the replay cursor could tell the
        # trials apart
        first, *rest = (read_trace_csv(tmp_path / "out" / f"trial_{i:03d}"
                                       / "trace.csv")
                        for i in range(len(res.trials)))
        for trace in rest:
            for col in ("lo", "hi", "theta_post", "loss"):
                np.testing.assert_array_equal(getattr(trace, col),
                                              getattr(first, col))

    def test_gamma_sweep_loads_once_and_each_point_starts_at_row_0(
            self, tmp_path, loads):
        cfg = self._config(tmp_path, trials=1)
        sweep(cfg, "controller.gamma", [0.02, 0.05, 0.1], tmp_path / "sw")
        assert loads == [cfg["model"]["path"]]
        # step 1 has the same parameter at every point; its set reads row 0
        firsts = {(t.lo[0], t.hi[0]) for t in (
            read_trace_csv(tmp_path / f"sw/sweep_controller_gamma_{g}"
                           f"/trial_000/trace.csv") for g in (0.02, 0.05, 0.1))}
        run_experiment({**cfg, "controller": {
            "kind": "single", "gamma": 0.1}}, tmp_path / "alone")
        alone = read_trace_csv(tmp_path / "alone/trial_000/trace.csv")
        assert firsts == {(alone.lo[0], alone.hi[0])}

    def test_each_run_loads_again(self, tmp_path, loads):
        cfg = self._config(tmp_path, trials=1)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert len(loads) == 2


def _val_pinball_loop(rc, trace):
    """The validation score as a per-row loop over models.pinball_loss, the
    reference for the vectorised _val_pinball."""
    from riskcal.models import pinball_loss
    window = rc.val_window or rc.eval_window or (1, len(trace))
    taus = rc.model.fields["taus"]
    tau_lo, tau_hi = min(taus), max(taus)
    sl = slice(window[0] - 1, window[1])
    lo, hi, y = trace.lo[sl], trace.hi[sl], trace.y[sl]
    total = 0.0
    for i in range(len(y)):
        if not (math.isfinite(lo[i]) and math.isfinite(hi[i])
                and math.isfinite(y[i])):
            return math.inf
        total += 0.5 * (pinball_loss(y[i], lo[i], tau_lo)
                        + pinball_loss(y[i], hi[i], tau_hi))
    return total / max(len(y), 1)


class TestValPinball:
    class _Trace:
        def __init__(self, lo, hi, y):
            self.lo, self.hi, self.y = (np.asarray(v, dtype=float)
                                        for v in (lo, hi, y))

        def __len__(self):
            return len(self.y)

    def _score(self, fn, lo, hi, y, window=None, taus=(0.05, 0.95)):
        from types import SimpleNamespace
        rc = SimpleNamespace(val_window=window, eval_window=None,
                             model=SimpleNamespace(fields={"taus": taus}))
        return fn(rc, self._Trace(lo, hi, y))

    def _same(self, *args, **kwargs):
        from riskcal.experiment import _val_pinball
        got = self._score(_val_pinball, *args, **kwargs)
        want = self._score(_val_pinball_loop, *args, **kwargs)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), \
            (got, want)
        return got

    @given(rows=st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 3),
                         min_size=1, max_size=60),
           start=st.integers(1, 60))
    def test_equals_the_loop(self, rows, start):
        lo, hi, y = zip(*rows)
        start = min(start, len(rows))
        self._same(lo, hi, y, window=(start, len(rows)))

    def test_long_window_equals_the_loop(self):
        # long enough that a pairwise sum would round differently
        rng = np.random.default_rng(3)
        y = rng.normal(size=2000)
        lo = y - rng.exponential(size=2000) + 0.3
        self._same(lo, lo + rng.exponential(size=2000), y)

    def test_signed_zeros(self):
        # every term is -0.0; the loop's running total starts at +0.0
        assert math.copysign(1.0, self._same([0.0] * 3, [0.0] * 3,
                                             [0.0] * 3)) == 1.0
        self._same([-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0])

    def test_non_finite_rows(self):
        assert self._same([0.0, -math.inf], [1.0, 1.0], [0.5, 0.5]) \
            == math.inf
        assert self._same([0.0, 0.0], [1.0, math.inf], [0.5, 0.5]) \
            == math.inf
        assert self._same([0.0, 0.0], [1.0, 1.0], [0.5, math.nan]) \
            == math.inf
        # a non-finite row outside the window does not count
        assert self._same([math.nan, 0.0], [1.0, 1.0], [0.5, 0.5],
                          window=(2, 2)) == pytest.approx(0.025)

    def test_one_row_window(self):
        self._same([-1.0, 0.25, 3.0], [1.0, 2.5, 4.0], [0.3, 3.0, 2.0],
                   window=(2, 2))

    def test_tau_is_checked(self):
        from riskcal.experiment import _val_pinball
        with pytest.raises(ValueError, match="tau"):
            self._score(_val_pinball, [0.0], [1.0], [0.5], taus=(0.05, 1.5))


class TestSweep:
    def test_single_point_grid_selected(self, tmp_path):
        cfg = base_config(trials=1, steps=600, val_window=[101, 400])
        sel = sweep(cfg, "controller.gamma", [0.05], tmp_path)
        assert sel["selected"] == 0.05
        assert (tmp_path / "ranking.csv").exists()
        assert (tmp_path / "sweep.json").exists()

    def test_tie_breaks_to_smaller_value(self, tmp_path):
        # the oracle model ignores gamma's effect on val pinball only weakly;
        # force an exact tie by sweeping a parameter with no effect
        cfg = base_config(trials=1, steps=400, val_window=[101, 300])
        sel = sweep(cfg, "controller.B", [2.0, 1.0], tmp_path)
        ranked_vals = [row["value"] for row in sel["ranking"]]
        assert sel["selected"] == 1.0
        assert ranked_vals[0] == 1.0

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(base_config(), "controller.gamma", [], tmp_path)


class TestTraceRoundTrip:
    def test_multi_trace_round_trip(self, tmp_path):
        from riskcal.engine import StreamTrace
        n, k = 7, 2
        rng = np.random.default_rng(0)
        trace = StreamTrace(
            loss=rng.uniform(size=(n, k)),
            theta_pre=rng.normal(size=(n, k)),
            theta_post=rng.normal(size=(n, k)),
            covered=rng.uniform(size=n) < 0.5,
            size=rng.uniform(size=n),
            lo=np.full(n, math.nan), hi=np.full(n, math.nan),
            y=np.full(n, math.nan), group=np.full(n, -1),
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, "size")
        back = read_trace_csv(path)
        np.testing.assert_array_equal(back.loss, trace.loss)
        np.testing.assert_array_equal(back.theta_pre, trace.theta_pre)
        np.testing.assert_array_equal(back.theta_post, trace.theta_post)

    def test_non_finite_values_round_trip(self, tmp_path):
        from riskcal.engine import StreamTrace
        trace = StreamTrace(
            loss=np.array([0.0, 1.0]),
            theta_pre=np.array([0.0, 0.5]),
            theta_post=np.array([0.5, 1.0]),
            covered=np.array([True, False]),
            size=np.array([math.inf, 0.0]),
            lo=np.array([-math.inf, math.nan]),
            hi=np.array([math.inf, math.nan]),
            y=np.array([1.0, 2.0]),
            group=np.array([-1, -1]),
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, "interval")
        back = read_trace_csv(path)
        assert math.isinf(back.hi[0]) and math.isnan(back.lo[1])

    @pytest.mark.parametrize("layout", ["interval", "size"])
    def test_extreme_values_read_back_exactly(self, tmp_path, layout):
        from riskcal.engine import StreamTrace
        values = np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324,
                           2.2250738585072014e-308, 1e300, -1e-300, 1 / 3])
        n = len(values)
        trace = StreamTrace(
            loss=np.column_stack([values, values[::-1]]),
            theta_pre=np.column_stack([values[::-1], values]),
            theta_post=np.column_stack([values, values[::-1]]),
            covered=np.arange(n) % 2 == 0, size=values,
            lo=values, hi=values[::-1],
            y=np.full(n, math.nan), group=np.full(n, -1))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, layout)
        back = read_trace_csv(path)
        for name in ("loss", "theta_pre", "theta_post", "covered"):
            assert getattr(back, name).tobytes() == \
                getattr(trace, name).tobytes()
        kept = ("lo", "hi") if layout == "interval" else ("size",)
        for name in kept:
            assert getattr(back, name).tobytes() == \
                getattr(trace, name).tobytes()

    @pytest.mark.parametrize("layout", ["intervals", "Size", ""])
    def test_unknown_layout_is_an_error(self, tmp_path, layout):
        col = np.full(2, 0.5)
        trace = StreamTrace(loss=col, theta_pre=col, theta_post=col,
                            covered=np.ones(2, dtype=bool), size=col,
                            lo=col, hi=col, y=col, group=np.zeros(2, int))
        with pytest.raises(ValueError, match=f"layout {layout!r}: a trace's "
                                             "layout is 'interval' or 'size'"):
            write_trace_csv(trace, tmp_path / "trace.csv", layout)

    @pytest.mark.parametrize("n", [0, 1])
    def test_short_traces_read_back(self, tmp_path, n):
        from riskcal.engine import StreamTrace
        col = np.full(n, 0.5)
        trace = StreamTrace(loss=col, theta_pre=col, theta_post=col,
                            covered=np.ones(n, dtype=bool), size=col,
                            lo=col, hi=col, y=col, group=np.zeros(n, int))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, "interval")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_trace_csv(path)
        assert len(back) == n and back.theta_post.shape == (n,)
        assert back.lo.tobytes() == col.tobytes()


def _write_trace_csv_frozen(trace, path, layout="interval"):
    """``write_trace_csv`` as it was: every cell formatted in its row."""
    names, cols = [], []
    for name in ("loss", "theta_pre", "theta_post"):
        col = getattr(trace, name)
        if col.ndim == 1:
            names.append(name)
            cols.append(col)
        else:
            names += [f"{name}_{i + 1}" for i in range(col.shape[1])]
            cols += list(col.T)
    if layout == "interval":
        names += ["set_lo", "set_hi"]
        cols += [trace.lo, trace.hi]
    else:
        names.append("set_size")
        cols.append(trace.size)
    row = "%d," + "%.17g," * len(cols) + "%d\n"
    rows = zip(range(1, len(trace) + 1), *[col.tolist() for col in cols],
               trace.covered.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["step", *names, "covered"]) + "\n")
        fh.writelines(row % values for values in rows)


_CELL = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1 / 3])


@st.composite
def _loop_traces(draw):
    """A trace shaped as the loop records it: k = 1 (1-D columns), k = 1 or
    k = 2 ((T, k) columns), each row's theta_post the next row's
    theta_pre."""
    from riskcal.engine import StreamTrace
    n = draw(st.integers(0, 25))
    k = draw(st.sampled_from([None, 1, 2]))
    shape = (n,) if k is None else (n, k)
    cells = lambda m: np.array(draw(st.lists(_CELL, min_size=m, max_size=m)),
                               dtype=float)
    thetas = cells((n + 1) * (k or 1)).reshape((n + 1,) + shape[1:])
    return StreamTrace(
        loss=cells(int(np.prod(shape))).reshape(shape),
        theta_pre=thetas[:-1].copy(), theta_post=thetas[1:].copy(),
        covered=np.array(draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool),
        size=cells(n), lo=cells(n), hi=cells(n), y=np.full(n, math.nan),
        group=np.full(n, -1))


class TestWriteTraceSameBytes:
    """The export formats each parameter once when every row's theta_post is
    the next row's theta_pre, and writes the bytes of the frozen writer on
    every trace, chained or not."""

    def _same_bytes(self, trace, layout):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = f"{tmp}/new.csv", f"{tmp}/old.csv"
            write_trace_csv(trace, new, layout)
            _write_trace_csv_frozen(trace, old, layout)
            with open(new, "rb") as a, open(old, "rb") as b:
                assert a.read() == b.read()

    @settings(deadline=None)
    @given(trace=_loop_traces(), layout=st.sampled_from(["interval", "size"]),
           data=st.data())
    def test_chained_and_edited_traces(self, trace, layout, data):
        from riskcal.experiment import _chained
        assert _chained(trace.theta_pre, trace.theta_post)
        self._same_bytes(trace, layout)
        n = len(trace)
        if n < 2:
            return
        # an edit to one theta_post cell breaks the chain at its row
        post = trace.theta_post.copy()
        flat = post.reshape(n, -1)
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(0, flat.shape[1] - 1))
        old = flat[i, j]
        flat[i, j] = data.draw(_CELL.filter(
            lambda v: np.float64(v).tobytes() != np.float64(old).tobytes()))
        edited = dataclasses.replace(trace, theta_post=post)
        assert not _chained(edited.theta_pre, edited.theta_post)
        self._same_bytes(edited, layout)

    @pytest.mark.parametrize("layout", ["interval", "size"])
    def test_signed_zero_edit_is_written_as_it_is(self, tmp_path, layout):
        from riskcal.engine import StreamTrace
        col = np.array([0.5, -0.0, 0.25])
        trace = StreamTrace(
            loss=col, theta_pre=np.array([0.0, -0.0, 0.1]),
            theta_post=np.array([0.0, 0.1, 0.2]),  # 0.0 then -0.0: no chain
            covered=np.ones(3, dtype=bool), size=col, lo=col, hi=col,
            y=col, group=np.zeros(3, int))
        self._same_bytes(trace, layout)
        write_trace_csv(trace, tmp_path / "t.csv", layout)
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert rows[1].split(",")[3] == "0" and rows[2].split(",")[2] == "-0"


class TestCli:
    def _write_cfg(self, tmp_path, cfg):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_run_exit_zero_and_artifacts(self, tmp_path, capsys):
        cfg = base_config(trials=1, steps=400)
        path = self._write_cfg(tmp_path, cfg)
        code = cli_main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certificate"] == "PASS"
        assert (tmp_path / "out" / "certificate.txt").exists()

    def test_run_overrides(self, tmp_path, capsys):
        cfg = base_config(trials=5, steps=300)
        path = self._write_cfg(tmp_path, cfg)
        code = cli_main(["run", path, "--trials", "1", "--seed", "3",
                         "--out", str(tmp_path / "o2")])
        assert code == 0
        saved = json.loads((tmp_path / "o2" / "config.json").read_text())
        assert saved["trials"] == 1 and saved["seed"] == 3

    @pytest.mark.parametrize("change", [
        {"eval_window": ["a", 5]},
        {"eval_window": [1.5, 5]},
        {"stream": "known_quantile"},
        {"stream": {"kind": "known_quantile", "slope": "steep"}},
        {"model": ["oracle"]},
        {"model": {"kind": "linear_pinball", "lr": "x"},
         "stream": {"kind": "synthetic"}},
        {"model": {"kind": "constant", "values": [1.0]}},
        {"constructor": 5},
        {"constructor": {"kind": "image", "heuristic": "constant"}},
        {"constructor": {"kind": "image",
                         "heuristic": {"kind": "constant", "value": "x"}}},
        {"losses": ["binary"]},
        {"losses": [{"kind": "mc", "r": 0.1, "cap": "many"}]},
        {"stretch": None},
        {"controller": []},
        {"controller": {"kind": "baseline_aci", "warmup": "x"}},
    ])
    def test_malformed_sections_exit_two(self, tmp_path, capsys, change):
        cfg = base_config(trials=1, steps=300)
        cfg.update(change)
        path = self._write_cfg(tmp_path, cfg)
        assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_grid_tokens_are_json(self, tmp_path, capsys):
        # integer fields can be swept: "50" parses as 50, not 50.0
        cfg = base_config(trials=1, steps=400, val_window=[101, 300],
                          controller={"kind": "baseline_aci", "gamma": 0.05,
                                      "window": 100})
        path = self._write_cfg(tmp_path, cfg)
        code = cli_main(["sweep", path, "--param", "controller.window",
                         "--grid", "50", "100", "--out", str(tmp_path / "sw")])
        assert code == 0
        sel = json.loads(capsys.readouterr().out)
        assert sorted(r["value"] for r in sel["ranking"]) == [50, 100]
        assert all(isinstance(r["value"], int) for r in sel["ranking"])

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = base_config(trials=0)
        path = self._write_cfg(tmp_path, cfg)
        assert cli_main(["run", path]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, [[0.05]], {"v": 0.05}])
    @pytest.mark.parametrize("kind,field", [
        ("single", "gamma"), ("multi", "gamma"), ("baseline_aci", "gamma"),
        ("baseline_aci", "alpha")])
    def test_mistyped_controller_field_is_a_config_error(
            self, tmp_path, capsys, kind, field, value):
        cfg = base_config(trials=1, steps=300)
        cfg["controller"] = {"kind": kind, field: value}
        path = self._write_cfg(tmp_path, cfg)
        assert cli_main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "controller" in err

    def test_sweep_command(self, tmp_path, capsys):
        cfg = base_config(trials=1, steps=400, val_window=[101, 300])
        path = self._write_cfg(tmp_path, cfg)
        code = cli_main(["sweep", path, "--param", "controller.gamma",
                         "--grid", "0.05", "0.1",
                         "--out", str(tmp_path / "sw")])
        assert code == 0
        sel = json.loads(capsys.readouterr().out)
        assert sel["param"] == "controller.gamma"
        assert len(sel["ranking"]) == 2

    def test_failed_certificate_gives_exit_one(self, tmp_path, capsys,
                                               monkeypatch):
        import riskcal.cli as cli_mod
        from riskcal.experiment import ExperimentResult

        def fake_run(cfg):
            return ExperimentResult(
                config=cfg, certificate_passed=False,
                certificate_lines=[("trial_000 theta_bound", "FAIL", "bad")],
                aggregate={"trials": 1}, out_dir="x")

        monkeypatch.setattr(cli_mod, "run_experiment", fake_run)
        path = self._write_cfg(tmp_path, base_config(trials=1, steps=300))
        assert cli_mod.main(["run", path]) == 1


def _round_trip_config(kind, seed, steps, gamma, m, width, offset):
    # a narrow [m, M] and a start near m, so both safeguards fire; a config
    # starts at or below M + 2 gamma B and, two-sided, at or above
    # m - 2 gamma B
    two_sided = kind == "single" or bool(seed % 2)
    theta_init = min(m + offset, (m + width) + 2.0 * gamma * 1.0)
    if two_sided:
        theta_init = max(theta_init, m - 2.0 * gamma * 1.0)
    controller = {"gamma": gamma, "m": m, "M": m + width, "B": 1.0,
                  "theta_init": theta_init}
    if kind == "single":
        return base_config(seed=seed, steps=steps, trials=1,
                           eval_window=[1, steps],
                           controller={"kind": "single", **controller})
    return base_config(
        seed=seed, steps=steps, trials=1, eval_window=[1, steps],
        stream={"kind": "image", "height": 6, "width": 6,
                "shift_period": 50, "shift_factor": 2.0},
        model={"kind": "constant"},
        constructor={"kind": "image"},
        stretch={"kind": "exponential"},
        losses=[{"kind": "image_miscoverage", "r": 0.2},
                {"kind": "center_failure", "r": 0.1}],
        controller={"kind": "multi", "two_sided": two_sided,
                    "aggregation": "max" if seed % 3 else "mean",
                    **controller})


class TestInputFileErrors:
    """Input files that do not fit the config are config errors: exit 2
    with the field path, for both drivers."""

    def _cli(self, tmp_path, cfg, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "controller.gamma", "--grid", "0.05", "0.1"]
        return cli_main(argv)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("section", ["stream", "model"])
    def test_missing_file(self, tmp_path, capsys, command, section):
        cfg = csv_config(tmp_path)
        cfg[section]["path"] = str(tmp_path / "absent.csv")
        assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{section}.path" in err
        assert "absent.csv" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("field,value", [
        ("feature_cols", ["f1", "f9"]), ("target_col", "price"),
        ("timestamp_col", "when")])
    def test_column_not_in_header(self, tmp_path, capsys, command, field,
                                  value):
        cfg = csv_config(tmp_path)
        cfg["stream"][field] = value
        assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"stream.{field}" in err
        assert "not in header" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_replay_lacks_a_level(self, tmp_path, capsys, command):
        cfg = csv_config(tmp_path)
        cfg["model"]["taus"] = [0.1, 0.95]
        assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model.taus" in err
        assert "[0.1]" in err

    @pytest.mark.parametrize("second", ["q_0.05", "q_0.050"])
    def test_replay_names_a_level_twice(self, tmp_path, capsys, second):
        # neither column of a level named twice may go unread
        cfg = csv_config(tmp_path)
        path = tmp_path / "p.csv"
        head, *rows = path.read_text().splitlines()
        path.write_text("\n".join([f"{head},{second}"]
                                  + [f"{row},9.0" for row in rows]) + "\n")
        assert self._cli(tmp_path, cfg, "run") == 2
        assert capsys.readouterr().err == (
            f"config error: model.path: {path}: columns 'q_0.05' and "
            f"'{second}' both replay level 0.05\n")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_auto_bounds_on_a_one_row_stream(self, tmp_path, capsys, command):
        cfg = csv_config(tmp_path, eval_window=None, val_window=None)
        path = tmp_path / "one.csv"
        path.write_text("timestamp,target,f1\n2021-01-01T00:00:00,1.0,2.0\n")
        cfg["stream"].update(path=str(path), warmup=1)
        with warnings.catch_warnings():
            # one row is constant over its warm-up
            warnings.simplefilter("ignore", UserWarning)
            assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: stretch.beta_low: auto bounds "
                              "need at least two labels; the stream has 1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("row,cell,warmup,scale", [
        (5, "inf", 100, "nan"),     # in the warm-up: every label is NaN
        (70, "-inf", 50, "inf")])   # past the warm-up, inside the probe
    def test_auto_bounds_on_an_infinite_target(self, tmp_path, capsys,
                                               command, row, cell, warmup,
                                               scale):
        cfg = csv_config(tmp_path)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        ts, _, f1 = lines[row].split(",")
        lines[row] = f"{ts},{cell},{f1}"
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        cfg["stream"]["warmup"] = warmup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        if row <= warmup:  # the stream is read before the stretch probe
            assert err.startswith(
                f"config error: stream.path: {tmp_path / 's.csv'}: column "
                f"'target' has warm-up mean {cell} and std {scale}")
        else:
            assert err.startswith(
                "config error: stretch.beta_low: auto bounds need finite "
                f"labels; the first 100 labels give a scale of {scale}")
        assert "Traceback" not in err

    def _set_cell(self, tmp_path, row, col, cell):
        path = tmp_path / "s.csv"
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = cell
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_infinite_target_in_the_warm_up(self, tmp_path, capsys,
                                            command):
        # with fixed stretch bounds the run used to die at the first
        # adaptive update with lam=nan
        cfg = csv_config(tmp_path)
        cfg["stretch"].update(beta_low=-1.0, beta_high=1.0)
        path = self._set_cell(tmp_path, 5, 1, "inf")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: stream.path: {path}: column 'target' has warm-up "
            "mean inf and std nan; both must be finite over its first 100 "
            "rows")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("cell", ["inf", "+nan"])
    def test_infinite_feature_in_the_warm_up(self, tmp_path, capsys,
                                             command, cell):
        # a learning model used to die at the first step on a NaN feature
        cfg = csv_config(tmp_path, model={"kind": "linear_pinball",
                                          "taus": [0.05, 0.95]})
        path = self._set_cell(tmp_path, 7, 2, cell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: stream.path: {path}: column 'f1' has warm-up "
            f"mean {float(cell)} and std nan; both must be finite over its "
            "first 100 rows")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_overflowing_feature_spread_in_the_warm_up(self, tmp_path, capsys,
                                                       command):
        # finite cells whose squares overflow: a finite mean, an infinite
        # std, and a feature standardized to zero
        cfg = csv_config(tmp_path, model={"kind": "linear_pinball",
                                          "taus": [0.05, 0.95]})
        self._set_cell(tmp_path, 3, 2, "1e300")
        path = self._set_cell(tmp_path, 4, 2, "-1e300")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert self._cli(tmp_path, cfg, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: stream.path: {path}: column "
                              "'f1' has warm-up mean ")
        assert "and std inf; both must be finite over its first 100 rows" \
            in err
        assert "Traceback" not in err


class TestConfigFileErrors:
    """A config file that is missing or is not JSON is a config error:
    exit 2 naming the file, on `run` and on `sweep`."""

    def _cli(self, tmp_path, path, command):
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "controller.gamma", "--grid", "0.05", "0.1"]
        return cli_main(argv)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_missing_file(self, tmp_path, capsys, command):
        path = tmp_path / "absent.json"
        assert self._cli(tmp_path, path, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: cannot read")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_invalid_json(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text('{"schema_version": 1,\n "steps": 10,,\n}\n')
        assert self._cli(tmp_path, path, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: not valid JSON")
        assert "line 2 column 14" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"out_dir": "\xff"}')
        assert self._cli(tmp_path, path, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: not UTF-8 text")


class TestVerifyCli:
    def test_untouched_run_verifies(self, tmp_path, capsys):
        run_experiment(base_config(trials=2, steps=300), tmp_path)
        capsys.readouterr()
        assert cli_main(["verify", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == f"{tmp_path}: PASS"

    def test_sweep_directory_verifies_every_point(self, tmp_path, capsys):
        sweep(base_config(trials=1, steps=300, val_window=[101, 300]),
              "controller.gamma", [0.05, 0.1], tmp_path)
        capsys.readouterr()
        assert cli_main(["verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"{tmp_path / 'sweep_controller_gamma_0.05'}: PASS",
                       f"{tmp_path / 'sweep_controller_gamma_0.1'}: PASS"]

    def test_tampered_theta_post_fails(self, tmp_path, capsys):
        run_experiment(base_config(trials=2, steps=300), tmp_path)
        path = tmp_path / "trial_001" / "trace.csv"
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("theta_post")
        row = lines[50].split(",")
        row[col] = repr(float(row[col]) + 0.25)
        lines[50] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["verify", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{tmp_path}: MISMATCH" in out
        assert "+trial_001 recursion: FAIL" in out

    def test_directory_without_runs(self, tmp_path, capsys):
        assert cli_main(["verify", str(tmp_path)]) == 2
        assert "verify error" in capsys.readouterr().err



def _verify_run(kind, tmp_path):
    """A run of one controller kind in ``tmp_path``; its first trace."""
    if kind == "single":
        cfg = base_config(trials=2, steps=300)
    elif kind == "multi":
        cfg = _image_config(**_center_failure())
        cfg["controller"]["two_sided"] = True
    elif kind == "baseline":
        cfg = base_config(trials=1, steps=600, eval_window=[301, 600],
                          controller={"kind": "baseline_aci", "gamma": 0.05,
                                      "alpha": 0.1, "window": 100})
    else:  # a CSV stream of 400 rows, shorter than its steps
        cfg = csv_config(tmp_path, steps=500, trials=1)
    run_experiment(cfg, tmp_path / "run")
    return tmp_path / "run" / "trial_000" / "trace.csv"


class TestVerifyStepsAndRows:
    """``riskcal verify`` catches a renumbered and a truncated trace on
    single-risk, multi-risk and baseline runs, with exit 1; untouched runs,
    a CSV run shorter than ``steps`` among them, verify with exit 0."""

    KINDS = ["single", "multi", "baseline", "csv"]

    def _verify(self, tmp_path, capsys):
        capsys.readouterr()
        status = cli_main(["verify", str(tmp_path / "run")])
        return status, capsys.readouterr().out

    @pytest.mark.parametrize("kind", KINDS)
    def test_untouched_run_verifies(self, tmp_path, capsys, kind):
        path = _verify_run(kind, tmp_path)
        rows = len(path.read_text().splitlines()) - 1
        assert rows == (400 if kind == "csv" else
                        json.loads((tmp_path / "run" / "config.json")
                                   .read_text())["steps"])
        assert self._verify(tmp_path, capsys) == \
            (0, f"{tmp_path / 'run'}: PASS\n")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("row,step", [(50, "51"), (50, "50.5"),
                                          (1, "0"), (-1, "1e9")])
    def test_renumbered_step_fails(self, tmp_path, capsys, kind, row, step):
        path = _verify_run(kind, tmp_path)
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[0] = step
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        at = row if row > 0 else len(lines) - 1
        status, out = self._verify(tmp_path, capsys)
        assert status == 1
        assert out == (f"{tmp_path / 'run'}: ERROR {path}: row {at} has step "
                       f"{float(step):.17g}; steps run 1..{len(lines) - 1}\n")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("row,covered", [(50, "nan"), (50, "7"),
                                             (1, "-1"), (-1, "0.5")])
    def test_covered_not_a_flag_fails(self, tmp_path, capsys, kind, row,
                                      covered):
        # astype(bool) would read each of these as covered
        path = _verify_run(kind, tmp_path)
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        assert cells[-1] in ("0", "1")
        cells[-1] = covered
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        at = row if row > 0 else len(lines) - 1
        status, out = self._verify(tmp_path, capsys)
        assert status == 1
        assert out == (f"{tmp_path / 'run'}: ERROR {path}: row {at} has "
                       f"covered {float(covered):.17g}; covered is 0 or 1\n")

    @pytest.mark.parametrize("kind", ["single", "multi", "baseline"])
    @pytest.mark.parametrize("drop", [1, 100])
    def test_truncated_trace_fails(self, tmp_path, capsys, kind, drop):
        path = _verify_run(kind, tmp_path)
        lines = path.read_text().splitlines()
        steps = len(lines) - 1
        path.write_text("\n".join(lines[:-drop]) + "\n")
        status, out = self._verify(tmp_path, capsys)
        assert status == 1
        assert out == (f"{tmp_path / 'run'}: ERROR {path}: {steps - drop} "
                       f"rows for a run of {steps} steps\n")

    def test_csv_trace_longer_than_steps_fails(self, tmp_path, capsys):
        path = _verify_run("csv", tmp_path)
        config = tmp_path / "run" / "config.json"
        cfg = json.loads(config.read_text())
        cfg["steps"] = 399  # the trace keeps its 400 rows
        cfg["eval_window"] = [101, 399]
        cfg["val_window"] = [101, 299]
        config.write_text(json.dumps(cfg))
        status, out = self._verify(tmp_path, capsys)
        assert status == 1
        assert out == (f"{tmp_path / 'run'}: ERROR {path}: 400 rows for a "
                       "run of at most 399 steps\n")


class TestVerifyNamesWhatIsMissing:
    """A trace without one of the columns the certificate reads, or whose
    rows are of another width than its header, fails ``riskcal verify``
    with exit 1 and an error that names the file and the column (a bare
    ``KeyError`` or numpy's ``need at least one array to concatenate``
    before)."""

    def _verify(self, tmp_path, capsys, path, edit):
        lines = [edit(line.split(","))
                 for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(cells) + "\n" for cells in lines))
        capsys.readouterr()
        status = cli_main(["verify", str(tmp_path / "run")])
        return status, capsys.readouterr().out

    @pytest.mark.parametrize("kind,drop,name", [
        ("single", ["step"], "step"), ("single", ["loss"], "loss"),
        ("single", ["theta_pre"], "theta_pre"),
        ("single", ["theta_post"], "theta_post"),
        ("single", ["covered"], "covered"),
        ("multi", ["loss_1", "loss_2"], "loss_1"),
        ("multi", ["theta_pre_1"], "theta_pre_1"),
        ("multi", ["theta_post_2"], "theta_post_2"),
        ("multi", ["step"], "step"), ("baseline", ["covered"], "covered")])
    def test_missing_column(self, tmp_path, capsys, kind, drop, name):
        path = _verify_run(kind, tmp_path)
        header = path.read_text().split("\n", 1)[0].split(",")
        keep = [i for i, c in enumerate(header) if c not in drop]
        status, out = self._verify(tmp_path, capsys, path, lambda cells: [
            cells[i] for i in keep])
        assert (status, out) == (
            1, f"{tmp_path / 'run'}: ERROR {path}: no {name!r} column\n")

    @pytest.mark.parametrize("cut,at", [
        (1, "no field for column 'covered'"),
        (3, "no field for column 'set_lo'"),
        (-1, "fields past the last column 'covered'")])
    def test_rows_of_another_width(self, tmp_path, capsys, cut, at):
        path = _verify_run("single", tmp_path)
        status, out = self._verify(tmp_path, capsys, path, lambda cells: (
            cells if cells[0] == "step"  # the header
            else cells[:-cut] if cut > 0 else cells + ["0"]))
        width = 7 - cut
        assert (status, out) == (
            1, f"{tmp_path / 'run'}: ERROR {path}: rows hold {width} fields "
               f"for 7 columns: {at}\n")

    def test_one_short_row(self, tmp_path, capsys):
        path = _verify_run("single", tmp_path)
        status, out = self._verify(
            tmp_path, capsys, path,
            lambda cells: cells[:-1] if cells[0] == "50" else cells)
        assert status == 1
        assert out.startswith(
            f"{tmp_path / 'run'}: ERROR {path}: the number of columns "
            f"changed from 7 to 6 at row 50")


class TestTraceRoundTripProperty:
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(kind=st.sampled_from(["single", "multi"]),
           seed=st.integers(0, 10_000), steps=st.integers(1, 200),
           gamma=st.floats(0.01, 0.5), m=st.floats(-0.5, 0.0),
           width=st.floats(0.01, 1.0), offset=st.floats(-0.6, 0.3))
    @example(kind="single", seed=0, steps=50, gamma=0.05, m=-2.0, width=4.0,
             offset=-1.0)
    def test_export_import_keeps_report_and_certificate(
            self, kind, seed, steps, gamma, m, width, offset):
        import tempfile
        from riskcal.experiment import _trial_report

        cfg = _round_trip_config(kind, seed, steps, gamma, m, width, offset)
        with tempfile.TemporaryDirectory() as out:
            res = run_experiment(cfg, out)
            back = read_trace_csv(f"{out}/trial_000/trace.csv")
            again = recompute_certificate(out)
        trace = run_trial(validate_config(cfg), 0)
        # the label and group are not exported; neither enters the report
        # of a group-free stream
        assert json.dumps(_trial_report(validate_config(cfg), back),
                          sort_keys=True) == \
            json.dumps(res.trials[0].report, sort_keys=True)
        assert again == res.certificate_lines
        np.testing.assert_array_equal(back.size, trace.size)
        np.testing.assert_array_equal(back.theta_post, trace.theta_post)


def _image_config(**overrides):
    cfg = base_config(
        steps=300, trials=1, eval_window=[1, 300], val_window=[101, 300],
        stream={"kind": "image", "shift_period": 100, "shift_factor": 2.0},
        model={"kind": "constant"},
        constructor={"kind": "image"},
        losses=[{"kind": "image_miscoverage", "r": 0.2}],
        stretch={"kind": "exponential"},
        controller={"kind": "single", "gamma": 0.05, "m": -5.0, "M": 5.0,
                    "B": 1.0})
    cfg.update(overrides)
    return cfg


# the scalar parts that replace _image_config's image ones
_SCALAR = {"stream": {"kind": "synthetic"}, "model": {"kind": "linear_pinball"},
           "constructor": {"kind": "cqr"},
           "losses": [{"kind": "binary", "r": 0.1}],
           "stretch": {"kind": "none"}}


# a CSV stream with a replayed model; no file is read before the config
# resolves
_CSV_FIELDS = {"stream": {"kind": "csv", "path": "s.csv",
                          "timestamp_col": "timestamp",
                          "target_col": "target", "warmup": 10},
               "model": {"kind": "replay", "path": "p.csv"},
               "constructor": {"kind": "cqr"},
               "losses": [{"kind": "binary", "r": 0.1}],
               "stretch": {"kind": "none"}}


def _center_failure(**fields):
    """Two image risks, the second a center_failure loss with ``fields``."""
    return {"losses": [{"kind": "image_miscoverage", "r": 0.2},
                       {"kind": "center_failure", "r": 0.1, **fields}],
            "controller": {"kind": "multi", "gamma": 0.05, "m": -5.0,
                           "M": 5.0}}


class TestSchema:
    """Every field is declared once with its type: unknown and mistyped
    fields, and values the run cannot use, are config errors (exit 2) that
    name the field."""

    def _run(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return cli_main(["run", str(path), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("change,field", [
        ({"stream": {"kind": "synthetic", "n_feature": 3},
          "model": {"kind": "linear_pinball"}}, "stream.n_feature"),
        ({"controller": {"kind": "single", "gama": 0.1}}, "controller.gama"),
        ({"controller": {"kind": "multi", "gamma": 0.05, "m": -2.0,
                         "M": 2.0, "two_sided": "false"}},
         "controller.two_sided"),
        ({"stream": {"kind": "image", "height": 3.7}}, "stream.height"),
        ({"controller": {"kind": "baseline_aci", "gamma": 0.05},
          "constructor": {"kind": "cqr"}, "model": {"kind": "oracle"},
          "stream": {"kind": "known_quantile"},
          "losses": [{"kind": "binary", "r": 0.1}],
          "stretch": {"kind": "error_adaptive", "beta_score": 0.05}},
         "stretch.kind"),
        ({"controller": {"kind": "baseline_aci", "gamma": 0.05},
          "constructor": {"kind": "quantile_scale"},
          "model": {"kind": "oracle"}, "stream": {"kind": "known_quantile"},
          "losses": [{"kind": "binary", "r": 0.1}],
          "stretch": {"kind": "none"}}, "constructor.kind"),
        ({"losses": [{"kind": "mc", "r": -1, "cap": 50}],
          "stream": {"kind": "known_quantile"}, "model": {"kind": "oracle"},
          "constructor": {"kind": "cqr"}, "stretch": {"kind": "none"}},
         "losses[0].r"),
        # a stretch kind takes only the beta_* fields its update reads
        ({"stretch": {"kind": "exponential", "beta_score": 0.3}},
         "stretch.beta_score"),
        ({"stretch": {"kind": "none", "beta_low": -1.0}}, "stretch.beta_low"),
        ({"stretch": {"kind": "exp_linear_zone", "beta_high": 1.0}},
         "stretch.beta_high"),
        ({"stream": {"kind": "known_quantile"}, "model": {"kind": "oracle"},
          "constructor": {"kind": "cqr"},
          "losses": [{"kind": "binary", "r": 0.1}],
          "stretch": {"kind": "score_adaptive", "beta_score": 0.1,
                      "beta_loss": 0.3}}, "stretch.beta_loss"),
        # sizes and feature counts are counts
        ({"stream": {"kind": "image", "height": 0}}, "stream.height"),
        ({"stream": {"kind": "image", "width": 0}}, "stream.width"),
        ({"stream": {"kind": "synthetic", "n_features": 0},
          "model": {"kind": "linear_pinball"}}, "stream.n_features"),
        ({"stream": {"kind": "known_quantile", "n_features": 0},
          "model": {"kind": "oracle"}}, "stream.n_features"),
        # an image loss's mask and center region fit the 16x16 grid
        ({"losses": [{"kind": "image_miscoverage", "r": 0.2,
                      "mask": [[True, True], [True, True]]}]},
         "losses[0].mask"),
        (_center_failure(mask=[[True, True], [True, True]]), "losses[1].mask"),
        (_center_failure(region=[10, 20, 0, 4]), "losses[1].region"),
        # valid pixels in rows 0-1 only, outside the default region
        (_center_failure(mask=[[i < 2] * 16 for i in range(16)]),
         "losses[1].region"),
        # an adaptive stretch needs a constructor with a conformity score
        ({**_SCALAR, "model": {"kind": "constant"},
          "constructor": {"kind": "quantile_scale"},
          "stretch": {"kind": "score_adaptive", "beta_score": 0.1}},
         "stretch.kind"),
        ({"stretch": {"kind": "error_adaptive", "beta_score": 0.05,
                      "beta_low": -1.0, "beta_high": 1.0}}, "stretch.kind"),
        # grids go with image constructors and losses, scalars with the rest
        ({**_SCALAR, "losses": [{"kind": "image_miscoverage", "r": 0.2}]},
         "losses[0].kind"),
        ({**_SCALAR, "losses": [{"kind": "binary", "r": 0.1},
                                {"kind": "center_failure", "r": 0.1}],
          "controller": {"kind": "multi", "gamma": 0.05}}, "losses[1].kind"),
        ({**_SCALAR, "constructor": {"kind": "image"}}, "constructor.kind"),
        ({"constructor": {"kind": "cqr"},
          "losses": [{"kind": "binary", "r": 0.1}]}, "constructor.kind"),
        ({"constructor": {"kind": "quantile_scale"}}, "constructor.kind"),
        # quantile_scale queries levels a pinball model does not track
        ({**_SCALAR, "constructor": {"kind": "quantile_scale"}},
         "constructor.kind"),
        ({"losses": [{"kind": "binary", "r": 0.5}]}, "losses[0].kind"),
        ({"losses": [{"kind": "mc", "r": 0.5, "cap": 5}],
          "controller": {"kind": "single", "gamma": 0.05}}, "losses[0].kind"),
        # B covers each loss's declared bound
        ({**_SCALAR, "losses": [{"kind": "mc", "r": 0.11, "cap": 5}]},
         "controller.B"),
        ({**_center_failure(), "controller": {
            "kind": "multi", "gamma": 0.05, "m": -5.0, "M": 5.0,
            "B": [1.0, 0.5]}}, "controller.B"),
        # exp(beta_loss * |loss - r|) must not overflow
        ({**_SCALAR, "stretch": {"kind": "error_adaptive", "beta_score": 0.05,
                                 "beta_loss": 1e9, "beta_low": -1.0,
                                 "beta_high": 1.0}}, "stretch.beta_loss"),
        # each target lies inside its loss bound, as for a single risk
        ({"losses": [{"kind": "image_miscoverage", "r": 1.5}],
          "controller": {"kind": "multi", "gamma": 0.05, "m": -5.0,
                         "M": 5.0, "two_sided": True}}, "controller"),
        # every risk's step size and starting parameter are finite; the
        # baseline's spec is validated like the controllers'
        ({"controller": {"kind": "single", "gamma": 0.05,
                         "theta_init": math.nan}}, "controller"),
        ({"controller": {"kind": "single", "gamma": math.inf}},
         "controller"),
        ({"controller": {"kind": "multi", "gamma": 0.05,
                         "theta_init": [math.inf]}}, "controller"),
        ({**_SCALAR, "controller": {"kind": "baseline_aci",
                                    "gamma": math.inf}}, "controller"),
        # the CSV warm-up is a count of rows
        ({**_CSV_FIELDS, "stream": {**_CSV_FIELDS["stream"], "warmup": 0}},
         "stream.warmup"),
        ({**_CSV_FIELDS, "stream": {**_CSV_FIELDS["stream"], "warmup": -5}},
         "stream.warmup"),
        # an adaptive stretch's beta_score and beta_loss are finite
        ({**_SCALAR, "stretch": {"kind": "error_adaptive",
                                 "beta_score": math.nan}}, "stretch"),
        ({**_SCALAR, "stretch": {"kind": "score_adaptive",
                                 "beta_score": math.nan}}, "stretch"),
        # a pinball model's step size is finite
        ({**_SCALAR, "model": {"kind": "linear_pinball", "lr": math.nan}},
         "model"),
        ({**_SCALAR, "model": {"kind": "linear_pinball", "lr": math.inf}},
         "model"),
        # a generator's lengths, spreads and coefficients are finite, and
        # its spreads >= 0
        ({**_SCALAR, "stream": {"kind": "synthetic",
                                "group_mean_length": math.nan}}, "stream"),
        ({**_SCALAR, "stream": {"kind": "synthetic",
                                "group_mean_length": math.inf}}, "stream"),
        ({**_SCALAR, "stream": {"kind": "synthetic",
                                "group_length_std": -1}}, "stream"),
        ({**_SCALAR, "stream": {"kind": "synthetic",
                                "group_length_std": math.nan}}, "stream"),
        ({**_SCALAR, "stream": {"kind": "synthetic", "scale_var": -1}},
         "stream"),
        ({**_SCALAR, "stream": {"kind": "known_quantile",
                                "noise_std": math.nan}}, "stream"),
        ({**_SCALAR, "stream": {"kind": "known_quantile",
                                "noise_std": math.inf}}, "stream"),
        # a negative noise scale swaps the oracle's quantiles
        ({**_SCALAR, "stream": {"kind": "known_quantile",
                                "noise_std": -1}}, "stream"),
        ({**_SCALAR, "stream": {"kind": "known_quantile", "slope": math.nan}},
         "stream"),
        ({**_SCALAR, "stream": {"kind": "known_quantile", "slope": math.inf}},
         "stream"),
        # the image stream's noise scales are finite and >= 0, its shift
        # period >= 0 and its frame correlation in [-1, 1]
        ({"stream": {"kind": "image", "height": 8, "width": 8,
                     "base_sigma": math.nan}}, "stream"),
        ({"stream": {"kind": "image", "base_sigma": -1.0}}, "stream"),
        ({"stream": {"kind": "image", "base_sigma": math.inf}}, "stream"),
        ({"stream": {"kind": "image", "shift_factor": math.inf}}, "stream"),
        ({"stream": {"kind": "image", "shift_factor": -2.0}}, "stream"),
        ({"stream": {"kind": "image", "frame_corr": math.nan}}, "stream"),
        ({"stream": {"kind": "image", "frame_corr": 1.5}}, "stream"),
        ({"stream": {"kind": "image", "frame_corr": -1.01}}, "stream"),
        ({"stream": {"kind": "image", "shift_period": -1}}, "stream"),
        # the constant heuristic's value is finite and >= 0
        ({"constructor": {"kind": "image", "heuristic": {
            "kind": "constant", "value": math.inf}}}, "constructor"),
        ({"constructor": {"kind": "image", "heuristic": {
            "kind": "constant", "value": math.nan}}}, "constructor"),
        # a constant model's outputs are finite
        ({**_SCALAR, "stream": {"kind": "known_quantile"},
          "model": {"kind": "constant", "default": math.nan}}, "model"),
        ({**_SCALAR, "stream": {"kind": "known_quantile"},
          "model": {"kind": "constant", "default": -math.inf}}, "model"),
        ({**_SCALAR, "stream": {"kind": "known_quantile"},
          "model": {"kind": "constant",
                    "values": {"0.05": math.nan, "0.95": 1.0}}}, "model"),
        ({**_SCALAR, "stream": {"kind": "known_quantile"},
          "model": {"kind": "constant",
                    "values": {"0.05": -1.0, "0.95": math.inf}}}, "model"),
        # every quantile level is finite and inside (0, 1), also where the
        # constructor does not read the levels
        ({**_SCALAR, "model": {"kind": "constant", "taus": [0.05, 1.5]},
          "constructor": {"kind": "quantile_scale"}}, "model.taus"),
        ({**_SCALAR, "model": {"kind": "constant", "taus": [0.0, 0.95]},
          "constructor": {"kind": "quantile_scale"}}, "model.taus"),
        ({**_SCALAR, "model": {"kind": "constant", "taus": [0.05, 1]},
          "constructor": {"kind": "quantile_scale"}}, "model.taus"),
        ({**_SCALAR, "model": {"kind": "constant", "taus": [math.nan, 0.95]},
          "constructor": {"kind": "quantile_scale"}}, "model.taus"),
        ({**_SCALAR, "model": {"kind": "constant", "taus": [0.05, math.inf]},
          "constructor": {"kind": "quantile_scale"}}, "model.taus"),
        ({**_SCALAR, "stream": {"kind": "known_quantile"},
          "model": {"kind": "oracle", "taus": [-0.5, 0.95]},
          "constructor": {"kind": "quantile_scale"}}, "model.taus"),
        ({**_SCALAR, "model": {"kind": "constant", "taus": [0.05, 1.5]},
          "constructor": {"kind": "image"}, "stream": {"kind": "image"},
          "losses": [{"kind": "image_miscoverage", "r": 0.2}]},
         "model.taus"),
        ({**_SCALAR, "model": {"kind": "linear_pinball",
                               "taus": [0.05, 1.5]}}, "model.taus"),
        # the safeguards and the loss bound are finite: an infinite one
        # makes every bound line vacuous
        ({**_SCALAR, "controller": {"kind": "single", "M": math.inf}},
         "controller.M"),
        ({**_SCALAR, "controller": {"kind": "single", "B": math.inf}},
         "controller.B"),
        ({**_SCALAR, "controller": {"kind": "single", "m": -math.inf}},
         "controller.m"),
        ({"controller": {"kind": "multi", "gamma": 0.05, "M": [math.inf]}},
         "controller.M"),
        # the baseline's warm-up is a count of steps
        ({**_SCALAR, "controller": {"kind": "baseline_aci", "warmup": -1}},
         "controller.warmup"),
        # finite fields whose theta envelope, or gamma * steps, overflows
        ({**_SCALAR, "controller": {"kind": "single", "gamma": 5e307,
                                    "m": -1e308, "M": 1e308}},
         "controller.gamma"),
        ({**_SCALAR, "controller": {"kind": "single", "gamma": 1e308}},
         "controller.gamma"),
    ])
    def test_rejected_field_exits_two(self, tmp_path, capsys, change, field):
        cfg = _image_config()
        cfg.update(change)
        assert self._run(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{field}:" in err

    def test_out_of_range_taus_exit_two_on_sweep(self, tmp_path, capsys):
        # the sweep's validation score reads the extreme levels of any model
        cfg = base_config(
            steps=300, val_window=[101, 300], stream={"kind": "synthetic"},
            model={"kind": "constant", "taus": [0.05, 1.5]},
            constructor={"kind": "quantile_scale"})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["sweep", str(path), "--param", "controller.gamma",
                         "--grid", "0.05", "0.1",
                         "--out", str(tmp_path / "o")]) == 2
        assert "config error: model.taus:" in capsys.readouterr().err

    def test_unknown_field_lists_the_fields_of_its_kind(self, tmp_path,
                                                        capsys):
        cfg = base_config(stream={"kind": "synthetic", "n_feature": 3},
                          model={"kind": "linear_pinball"})
        assert self._run(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert "unknown field" in err and "n_features" in err

    def test_defaults_are_resolved(self):
        rc = validate_config(base_config(
            stream={"kind": "synthetic"}, model={"kind": "constant"},
            constructor={"kind": "quantile_scale"},
            losses=[{"kind": "mc", "r": 0.2, "cap": 20}],
            controller={"kind": "single"}))
        assert rc.stream.fields["n_features"] == 5
        assert rc.model.fields["taus"] == (0.05, 0.95)
        # B is the loss's cap; quantile-scale calibration starts at -r
        assert (rc.spec.gamma, rc.spec.B, rc.spec.theta_init) == \
            (0.05, 20.0, -0.2)
        assert rc.stretch.kind == "none"

    def test_baseline_resolves_its_spec(self):
        rc = validate_config(base_config(controller={
            "kind": "baseline_aci", "gamma": 0.01, "alpha": 0.2}))
        assert rc.spec == baseline.aci_spec(0.01, 0.2)


# Valid configs of every section kind, for the schema fuzz below. No input
# file is read by validate_config, so the CSV and replay paths need not exist.
_FUZZ_BASES = [
    base_config(),
    base_config(stream={"kind": "synthetic", "n_features": 3},
                model={"kind": "linear_pinball", "lr": 2.0,
                       "taus": [0.05, 0.95], "fit_intercept": True,
                       "n_sgd_steps": 1},
                losses=[{"kind": "mc", "r": 0.11, "cap": 50}],
                stretch={"kind": "error_adaptive", "beta_score": 0.05,
                         "beta_loss": 0.1, "beta_low": "auto",
                         "beta_high": "auto"},
                controller={"kind": "single", "gamma": 0.05,
                            "theta_init": 0.0}),
    base_config(stream={"kind": "image", "height": 8, "width": 8},
                model={"kind": "constant", "values": {"0.05": -1.0},
                       "default": 0.0},
                constructor={"kind": "image",
                             "heuristic": {"kind": "constant", "value": 1.0}},
                losses=[{"kind": "image_miscoverage", "r": 0.2,
                         "mask": [[1] * 8] * 8},
                        {"kind": "center_failure", "r": 0.1,
                         "region": [2, 6, 2, 6], "threshold": 0.6}],
                stretch={"kind": "exponential"},
                controller={"kind": "multi", "gamma": [0.05, 0.1],
                            "m": -5.0, "M": 5.0, "B": [1.0, 1.0],
                            "theta_init": 0.0, "aggregation": "max",
                            "two_sided": True}),
    base_config(controller={"kind": "baseline_aci", "gamma": 0.05,
                            "window": 100, "alpha": 0.1, "warmup": 10,
                            "largest": False},
                val_window=[501, 1000], out_dir="out"),
    base_config(stream={"kind": "csv", "path": "s.csv",
                        "timestamp_col": "timestamp", "target_col": "target",
                        "feature_cols": ["f1"], "warmup": 100,
                        "augment_time": True, "timestamp_format": "iso"},
                model={"kind": "replay", "path": "p.csv", "taus": [0.05, 0.95]},
                constructor={"kind": "cqr"},
                stretch={"kind": "score_adaptive", "beta_score": 0.1,
                         "beta_low": -1.0, "beta_high": 1.0}),
]
_NAMES = sorted({key for cfg in _FUZZ_BASES for node in [cfg, *cfg.values()]
                 if isinstance(node, dict) for key in node}
                | {"decay", "window", "region", "mask", "cap", "B", "r"})
_WORDS = st.sampled_from(["auto", "none", "single", "multi", "image", "csv",
                          "replay", "constant", "mc", "baseline_aci",
                          "previous_residuals", "residual_model", "mean"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.text(max_size=4) | _WORDS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=4), inner,
                      max_size=3),
    max_leaves=8)


def _slots(node, out):
    """Every (container, key) pair of a config tree."""
    for key, value in list(node.items() if isinstance(node, dict)
                           else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


# Every kind of every part, with fields that fit it; no input file is read.
_KINDS = {
    "stream": [{"kind": "synthetic", "n_features": 2},
               {"kind": "known_quantile"},
               {"kind": "image", "height": 8, "width": 8}],
    "model": [{"kind": "linear_pinball"}, {"kind": "oracle"},
              {"kind": "constant"}],
    "constructor": [{"kind": "cqr"}, {"kind": "quantile_scale"},
                    {"kind": "image"}],
    "stretch": [{"kind": "none"}, {"kind": "exponential"},
                {"kind": "exp_linear_zone"},
                {"kind": "score_adaptive", "beta_score": 0.1},
                {"kind": "error_adaptive", "beta_score": 0.05,
                 "beta_loss": 0.1, "beta_low": "auto", "beta_high": "auto"}],
}
_LOSS_KINDS = [{"kind": "binary", "r": 0.1}, {"kind": "mc", "r": 0.11,
                                               "cap": 5},
               {"kind": "image_miscoverage", "r": 0.2},
               {"kind": "center_failure", "r": 0.1}]
_B = st.sampled_from([0.5, 1.0, 5.0])


@st.composite
def _controllers(draw):
    kind = draw(st.sampled_from(["single", "multi", "baseline_aci"]))
    if kind == "baseline_aci":
        return {"kind": kind, "gamma": 0.05, "window": 20, "warmup": 5}
    c = {"kind": kind, "gamma": 0.05, "m": -5.0, "M": 5.0}
    if draw(st.booleans()):  # else B is each loss's declared bound
        c["B"] = draw(_B if kind == "single" else
                      _B | st.lists(_B, min_size=1, max_size=2))
    return c


class TestSchemaFuzz:
    @pytest.mark.parametrize("cfg", _FUZZ_BASES)
    def test_bases_are_valid(self, cfg):
        validate_config(cfg)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_any_kinds_run_or_are_a_config_error(self, data):
        # a config that validates runs; part kinds that do not fit each
        # other are config errors, never a failure at some step
        cfg = json.loads(json.dumps(data.draw(st.sampled_from(
            [c for c in _FUZZ_BASES if c["stream"]["kind"] != "csv"]))))
        for part, kinds in _KINDS.items():  # the base's part half the time
            cfg[part] = data.draw(st.sampled_from([cfg[part]])
                                  | st.sampled_from(kinds))
        cfg["losses"] = data.draw(st.sampled_from([cfg["losses"]])
                                  | st.lists(st.sampled_from(_LOSS_KINDS),
                                             min_size=1, max_size=2))
        cfg["controller"] = data.draw(st.sampled_from([cfg["controller"]])
                                      | _controllers())
        cfg.update(steps=60, trials=1, eval_window=None, val_window=None)
        try:
            validate_config(cfg)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as out:
            result = run_experiment(cfg, out)
            trace = read_trace_csv(f"{out}/trial_000/trace.csv")
        assert len(result.trials) == 1
        assert len(trace) == 60

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_any_mutation_is_valid_or_a_config_error(self, data):
        cfg = json.loads(json.dumps(data.draw(st.sampled_from(_FUZZ_BASES))))
        for _ in range(data.draw(st.integers(1, 3))):
            slots = _slots(cfg, [])
            op = data.draw(st.sampled_from(["replace", "drop", "add"]))
            if op == "add":
                nodes = [cfg] + [c[k] for c, k in slots
                                 if isinstance(c[k], dict)]
                node = data.draw(st.sampled_from(nodes))
                name = data.draw(st.sampled_from(_NAMES) | st.text(max_size=4))
                node[name] = data.draw(_JSON)
            else:
                container, key = data.draw(st.sampled_from(slots))
                if op == "drop":
                    del container[key]
                else:
                    container[key] = data.draw(_JSON)
        try:
            validate_config(cfg)
        except ConfigError:
            pass


class TestSweepAnyField:
    def _sweep(self, tmp_path, cfg, param, *grid):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return cli_main(["sweep", str(path), "--param", param, "--grid",
                         *grid, "--out", str(tmp_path / "sw")])

    def test_field_left_at_its_default(self, tmp_path, capsys):
        cfg = _image_config()
        assert "width" not in cfg["stream"]
        assert self._sweep(tmp_path, cfg, "stream.width", "8", "16") == 0
        sel = json.loads(capsys.readouterr().out)
        assert sorted(r["value"] for r in sel["ranking"]) == [8, 16]
        point = tmp_path / "sw" / "sweep_stream_width_8" / "config.json"
        assert json.loads(point.read_text())["stream"]["width"] == 8

    @pytest.mark.parametrize("param", ["controller.gama", "stream.n_feature",
                                       "controler.gamma", "losses.r",
                                       "losses[0].r"])
    def test_misspelled_param_exits_two(self, tmp_path, capsys, param):
        assert self._sweep(tmp_path, _image_config(), param, "1", "2") == 2
        err = capsys.readouterr().err
        assert "config error" in err and param in err
        assert not (tmp_path / "sw").exists()  # refused before any point ran

    def test_section_param_exits_two(self, tmp_path, capsys):
        assert self._sweep(tmp_path, _image_config(), "stretch",
                           '{"kind": "none"}', '{"kind": "exponential"}') == 2
        assert "stretch: is a section" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_out_dir_param_exits_two(self, tmp_path, capsys):
        # every point writes under the sweep's directory, whatever its value
        assert self._sweep(tmp_path, _image_config(), "out_dir",
                           json.dumps(str(tmp_path / "a")),
                           json.dumps(str(tmp_path / "b"))) == 2
        assert capsys.readouterr().err.startswith("config error: out_dir: ")
        assert not any(tmp_path.glob("*/sweep_*"))

    @pytest.mark.parametrize("grid", [("0.01", "1e-2"), ("0.05", "0.1",
                                                         "0.05")])
    def test_values_naming_one_point_exit_two(self, tmp_path, capsys, grid):
        # the second point would overwrite the first's directory
        assert self._sweep(tmp_path, _image_config(), "controller.gamma",
                           *grid) == 2
        err = capsys.readouterr().err
        value = repr(json.loads(grid[0]))
        assert err.startswith("config error: controller.gamma: ")
        assert f"grid values {value} and {value} " in err
        assert not (tmp_path / "sw").exists()


class TestReplayTooShort:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_short_replay_file_is_a_config_error(self, tmp_path, capsys,
                                                 command):
        cfg = csv_config(tmp_path)
        cfg["model"]["path"] = str(write_predictions(tmp_path / "short.csv",
                                                     n=300))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "controller.gamma", "--grid", "0.05", "0.1"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "model.path" in err
        assert "300" in err and "400" in err

    def test_stream_shorter_than_steps_needs_its_own_rows_only(self,
                                                               tmp_path):
        # 400 steps over a 300-row series end at the series' last row
        cfg = csv_config(tmp_path, trials=1, eval_window=[101, 300],
                         val_window=None)
        cfg["stream"]["path"] = str(write_series(tmp_path / "s300.csv", 300))
        cfg["model"]["path"] = str(write_predictions(tmp_path / "p300.csv",
                                                     n=300))
        run_experiment(cfg, tmp_path / "out")
        assert len(read_trace_csv(tmp_path / "out/trial_000/trace.csv")) == 300


class TestCsvWindowsPastTheLastRow:
    """A CSV run ends at the file's last row, so a window that fits
    ``steps`` but ends past that row is a config error: exit 2 with the
    field, the file and its row count, for both drivers."""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("field,window", [
        ("eval_window", [101, 450]), ("val_window", [350, 480]),
        ("eval_window", [101, 401])])
    def test_window_past_the_last_row(self, tmp_path, capsys, command, field,
                                      window):
        cfg = csv_config(tmp_path, steps=500, trials=1)
        cfg[field] = window
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "controller.gamma", "--grid", "0.05", "0.1"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{field}:" in err
        assert f"{tmp_path / 's.csv'}, which has 400 rows" in err


class TestSweepOverPaths:
    def test_stream_path_sweep_verifies(self, tmp_path, capsys):
        # the same series in two directories: each point's name must stay
        # one directory, distinct per value
        cfg = csv_config(tmp_path, trials=1)
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(str(write_series(tmp_path / sub / "s.csv")))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sw"
        assert cli_main(["sweep", str(path), "--param", "stream.path",
                         "--grid", *map(json.dumps, paths),
                         "--out", str(out)]) == 0
        points = sorted(p.name for p in out.glob("sweep_*"))
        assert points == [
            "sweep_stream_path_" + p.replace("/", "%2F") for p in paths]
        capsys.readouterr()
        assert cli_main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.count(": PASS") == 2

    @pytest.mark.parametrize("param,short,field", [
        ("stream.path", "series", "eval_window"),
        ("model.path", "predictions", "model.path")])
    def test_short_second_point_fails_before_any_trial(
            self, tmp_path, capsys, param, short, field):
        # the second point's file has 250 rows; every point's rows are
        # checked while the points are validated, so no trial runs
        cfg = csv_config(tmp_path, trials=1)
        write = write_series if short == "series" else write_predictions
        grid = [cfg["stream" if short == "series" else "model"]["path"],
                str(write(tmp_path / f"{short}250.csv", n=250))]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sw"
        assert cli_main(["sweep", str(path), "--param", param,
                         "--grid", *map(json.dumps, grid),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ")
        assert "250" in err and "Traceback" not in err
        assert not list(out.rglob("trial_*"))


class TestThetaInitRange:
    """A start outside [m - 2 gamma B, M + 2 gamma B] fails the theta lines
    whatever the data, so it is a config error at controller.theta_init;
    the lower end binds two-sided control only. Here gamma = 0.05, B = 1,
    m = -2 and M = 2."""

    LO, HI = -2.0 - 2.0 * 0.05 * 1.0, 2.0 + 2.0 * 0.05 * 1.0

    def _multi(self, theta_init, two_sided):
        return base_config(
            losses=[{"kind": "binary", "r": 0.1}, {"kind": "binary", "r": 0.2}],
            controller={"kind": "multi", "m": -2.0, "M": 2.0,
                        "theta_init": theta_init, "two_sided": two_sided})

    def test_start_above_exits_two_before_any_output(self, tmp_path, capsys):
        cfg = base_config(controller={"kind": "single", "m": -2.0, "M": 2.0,
                                      "theta_init": 5})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: controller.theta_init: 5.0 is "
                              f"above M + 2 gamma B = {self.HI}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side", ["LO", "HI"])
    def test_boundary_starts_run_and_pass(self, tmp_path, side):
        theta_init = getattr(self, side)
        cfg = base_config(steps=200, trials=1, controller={
            "kind": "single", "m": -2.0, "M": 2.0, "theta_init": theta_init})
        res = run_experiment(cfg, tmp_path)
        trace = read_trace_csv(tmp_path / "trial_000" / "trace.csv")
        assert trace.theta_pre[0] == theta_init
        assert res.certificate_passed, res.certificate_lines

    @pytest.mark.parametrize("cfg", [
        base_config(controller={"kind": "single", "m": -2.0, "M": 2.0,
                                "theta_init": math.nextafter(HI, math.inf)}),
        base_config(controller={"kind": "single", "m": -2.0, "M": 2.0,
                                "theta_init": math.nextafter(LO, -math.inf)}),
    ], ids=["single-above", "single-below"])
    def test_one_ulp_outside_is_rejected(self, cfg):
        with pytest.raises(ConfigError, match=r"^controller\.theta_init: "):
            validate_config(cfg)

    def test_multi_checks_the_lower_end_when_two_sided_only(self):
        below = [0.0, math.nextafter(self.LO, -math.inf)]
        validate_config(self._multi(below, two_sided=False))
        with pytest.raises(ConfigError, match=r"^controller\.theta_init: .* "
                           r"\(risk 2\) is below m - 2 gamma B"):
            validate_config(self._multi(below, two_sided=True))
        above = [math.nextafter(self.HI, math.inf), 0.0]
        for two_sided in (False, True):
            with pytest.raises(ConfigError, match=r"^controller\.theta_init: "
                               r".* \(risk 1\) is above M \+ 2 gamma B"):
                validate_config(self._multi(above, two_sided))

    def test_the_baseline_takes_no_start_and_is_unaffected(self):
        validate_config(base_config(
            stream={"kind": "synthetic"},
            model={"kind": "linear_pinball", "taus": [0.05, 0.95]},
            controller={"kind": "baseline_aci", "gamma": 0.005}))


# ---------------------------------------------------------------------------
# The trace writer as it was before it wrote one chunk of rows at a time: a
# frozen copy, kept as the oracle of the same-bytes test below.
# ---------------------------------------------------------------------------

def _frozen_write_trace_csv(trace, path, layout="interval"):
    from itertools import chain, tee

    from riskcal.experiment import _PER_RISK_COLUMNS, _chained

    names, cols = [], []
    for name in _PER_RISK_COLUMNS:
        col = getattr(trace, name)
        if col.ndim == 1:
            names.append(name)
            cols.append(col)
        else:
            names += [f"{name}_{i + 1}" for i in range(col.shape[1])]
            cols += list(col.T)
    if layout == "interval":
        names += ["set_lo", "set_hi"]
        cols += [trace.lo, trace.hi]
    else:
        names.append("set_size")
        cols.append(trace.size)
    n = len(trace)
    pre, post = trace.theta_pre, trace.theta_post
    if n and _chained(pre, post):
        post_cols = post.reshape(n, -1).T
        k = len(post_cols)
        fmt = "%.17g," * k
        posts, lagged = tee(map(fmt.__mod__,
                                zip(*[col.tolist() for col in post_cols])))
        first = fmt % tuple(pre.reshape(n, k)[0].tolist())
        j = names.index("theta_pre" if post.ndim == 1 else "theta_pre_1")
        head, thetas, tail = cols[:j], [chain((first,), lagged), posts], \
            cols[j + 2 * k:]
        row = ("%d," + "%.17g," * len(head) + "%s%s" + "%.17g," * len(tail)
               + "%d\n")
    else:
        head, thetas, tail = cols, [], []
        row = "%d," + "%.17g," * len(cols) + "%d\n"
    rows = zip(range(1, n + 1), *[col.tolist() for col in head], *thetas,
               *[col.tolist() for col in tail], trace.covered.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["step", *names, "covered"]) + "\n")
        fh.writelines(map(row.__mod__, rows))


_CELLS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 0.1, 1e-300, 5e-324])


@st.composite
def _traces(draw):
    """A trace of 0-20 rows, 1-D or with k = 1 or 2 risk columns, whose
    theta_post chains into the next theta_pre or (for ``chained`` False)
    is drawn on its own, except perhaps in one bit."""
    from riskcal.engine import StreamTrace

    n = draw(st.integers(0, 20))
    k = draw(st.sampled_from([None, 1, 2]))
    shape = (n,) if k is None else (n, k)
    width = 1 if k is None else k

    def column(rows, cols=1):
        values = draw(st.lists(_CELLS, min_size=rows * cols,
                               max_size=rows * cols))
        return np.array(values, dtype=float).reshape(rows, cols)

    pre = column(n, width)
    post = np.concatenate([pre[1:], column(min(n, 1), width)])
    how = draw(st.sampled_from(["chained", "drawn", "one bit"]))
    if how == "drawn":
        post = column(n, width)
    elif how == "one bit" and n > 1:
        bits = post.view(np.int64)
        bits[draw(st.integers(0, n - 2)), 0] ^= 1
    flat = [column(n).reshape(n) for _ in range(4)]
    return StreamTrace(
        loss=column(n, width).reshape(shape), theta_pre=pre.reshape(shape),
        theta_post=post.reshape(shape),
        covered=np.array(draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool),
        size=flat[0], lo=flat[1], hi=flat[2], y=flat[3],
        group=np.full(n, -1))


class TestChunkedExportSameBytes:
    """The writer converts and writes one chunk of rows at a time, carrying
    the last theta_post it formatted into the next chunk's first theta_pre
    cells; its files equal the frozen whole-column writer's, byte for
    byte, for chained and unchained traces."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(trace=_traces(), chunk=st.sampled_from([1, 2, 3, 5]),
           layout=st.sampled_from(["interval", "size"]))
    def test_bytes_equal_the_frozen_writer(self, trace, chunk, layout):
        from unittest import mock

        from riskcal import engine

        with tempfile.TemporaryDirectory() as tmp:
            with mock.patch.object(engine, "_CHUNK", chunk):
                write_trace_csv(trace, f"{tmp}/new.csv", layout)
            _frozen_write_trace_csv(trace, f"{tmp}/old.csv", layout)
            with open(f"{tmp}/new.csv", "rb") as new, \
                    open(f"{tmp}/old.csv", "rb") as old:
                assert new.read() == old.read()


# ---------------------------------------------------------------------------
# The trace reader as it was before its columns became views of the parsed
# rows: a frozen copy, the oracle of the same-bits test below.
# ---------------------------------------------------------------------------

def _frozen_read_trace_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained")
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    body = body.reshape(-1, len(header))
    cols = dict(zip(header, body.T.copy()))
    n = len(body)
    bad = np.flatnonzero(cols["step"] != np.arange(1, n + 1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: row {i + 1} has step "
                         f"{cols['step'][i]:.17g}; steps run 1..{n}")

    def per_risk(name):
        if name in cols:
            return cols[name]
        k = sum(1 for c in cols if c.startswith(f"{name}_"))
        return np.column_stack([cols[f"{name}_{i + 1}"] for i in range(k)])

    nan = np.full(n, math.nan)
    lo, hi = cols.get("set_lo", nan), cols.get("set_hi", nan)
    if "set_size" in cols:
        size = cols["set_size"]
    else:
        size = np.where(np.isnan(lo), 0.0, hi - lo)
    return StreamTrace(
        loss=per_risk("loss"), theta_pre=per_risk("theta_pre"),
        theta_post=per_risk("theta_post"),
        covered=cols["covered"].astype(bool), size=size, lo=lo, hi=hi,
        y=nan, group=np.full(n, -1, dtype=int))


def _frozen_recompute_certificate(out):
    from riskcal.experiment import certificate_for_trace

    rc = validate_config(json.loads((out / "config.json").read_text()))
    return [line for trial_dir in sorted(out.glob("trial_*"))
            for line in certificate_for_trace(
                _frozen_read_trace_csv(trial_dir / "trace.csv"), rc,
                trial_dir.name)]


@st.composite
def _k_risk_traces(draw):
    """A trace of 0-20 rows, 1-D or with k = 1, 2 or 3 risk columns, of any
    cells, NaN, +-inf and -0.0 among them."""
    n = draw(st.integers(0, 20))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (n,) if k is None else (n, k)

    def column(shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(_CELLS, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    return StreamTrace(
        loss=column(shape), theta_pre=column(shape), theta_post=column(shape),
        covered=np.array(draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool),
        size=column(n), lo=column(n), hi=column(n), y=np.full(n, math.nan),
        group=np.full(n, -1))


def _assert_same_bits(new, old):
    """Every column of two traces has one dtype, shape and bits."""
    for name in (f.name for f in dataclasses.fields(StreamTrace)):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        bits = [np.ascontiguousarray(c).view(np.int64)
                if c.dtype == np.float64 else c.astype(np.int64)
                for c in (a, b)]
        np.testing.assert_array_equal(*bits, err_msg=name)


class TestReaderKeepsItsBits:
    """``read_trace_csv`` holds one copy of the parsed rows (its columns are
    views) and reads what the frozen copying reader read: every column's
    bits, the renumbered-step error and the re-derived certificates."""

    def _same(self, path):
        with np.errstate(invalid="ignore"):  # a set of inf - inf cells
            _assert_same_bits(read_trace_csv(path),
                              _frozen_read_trace_csv(path))

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(trace=_k_risk_traces(), layout=st.sampled_from(["interval", "size"]),
           data=st.data())
    def test_columns_keep_their_bits(self, trace, layout, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/trace.csv"
            write_trace_csv(trace, path, layout)
            self._same(path)
            # a file whose columns come in another order, which moves a
            # k-risk column's cells apart
            with open(path) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()]
            order = data.draw(st.permutations(range(len(rows[0]))))
            with open(path, "w") as fh:
                fh.writelines(",".join(row[i] for i in order) + "\n"
                              for row in rows)
            self._same(path)

    @pytest.mark.parametrize("header", [
        "step,loss,theta_pre,theta_post,set_lo,set_hi,covered",
        "step,loss_1,loss_2,theta_pre_1,theta_pre_2,theta_post_1,"
        "theta_post_2,set_size,covered"])
    def test_header_only_file(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n")
        self._same(path)
        assert len(read_trace_csv(path)) == 0

    @pytest.mark.parametrize("row,step", [(1, "0"), (3, "3.5"), (5, "9")])
    def test_renumbered_step_raises_the_same_error(self, tmp_path, row, step):
        col = np.linspace(0.0, 1.0, 5)
        trace = StreamTrace(
            loss=col, theta_pre=col, theta_post=col,
            covered=np.ones(5, dtype=bool), size=col, lo=col, hi=col,
            y=col, group=np.zeros(5, int))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        lines[row] = step + lines[row][lines[row].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as old:
            _frozen_read_trace_csv(path)
        with pytest.raises(ValueError) as new:
            read_trace_csv(path)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("kind", ["single", "multi", "baseline", "csv"])
    def test_recomputed_certificate_is_the_frozen_readers(self, tmp_path,
                                                          kind):
        _verify_run(kind, tmp_path)
        lines = recompute_certificate(tmp_path / "run")
        assert lines and lines == _frozen_recompute_certificate(
            tmp_path / "run")


# ---------------------------------------------------------------------------
# The trace reader as it was when it parsed the body through the open
# handle, one line at a time: a frozen copy, the oracle of the by-path
# test below.
# ---------------------------------------------------------------------------

def _frozen_read_trace_csv_by_handle(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained")
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    body = body.reshape(-1, len(header))
    cols = dict(zip(header, body.T))
    n = len(body)
    bad = np.flatnonzero(cols["step"] != np.arange(1, n + 1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: row {i + 1} has step "
                         f"{cols['step'][i]:.17g}; steps run 1..{n}")

    def per_risk(name):
        if name in cols:
            return cols[name]
        k = sum(1 for c in cols if c.startswith(f"{name}_"))
        names = [f"{name}_{i + 1}" for i in range(k)]
        j = header.index(names[0]) if k and names[0] in cols else 0
        if k and header[j:j + k] == names:
            return body[:, j:j + k]
        return np.column_stack([cols[c] for c in names])

    nan = np.broadcast_to(math.nan, n)
    lo, hi = cols.get("set_lo", nan), cols.get("set_hi", nan)
    if "set_size" in cols:
        size = cols["set_size"]
    else:
        size = np.where(np.isnan(lo), 0.0, hi - lo)
    return StreamTrace(
        loss=per_risk("loss"), theta_pre=per_risk("theta_pre"),
        theta_post=per_risk("theta_post"),
        covered=cols["covered"].astype(bool), size=size, lo=lo, hi=hi,
        y=nan, group=np.broadcast_to(np.int64(-1), n))


def _edited_trace_file(path, layout, k, edit):
    """A trace of 6 rows of awkward cells written in ``layout`` with k risk
    columns (1-D for k None), its text then passed through ``edit``."""
    values = np.array([math.inf, -0.0, math.nan, 5e-324, 1 / 3, -1e300])
    shape = (6,) if k is None else (6, k)
    per_risk = np.resize(values, shape)
    trace = StreamTrace(
        loss=per_risk, theta_pre=per_risk[::-1].copy(), theta_post=per_risk,
        covered=np.arange(6) % 2 == 0, size=values, lo=values,
        hi=values[::-1].copy(), y=np.full(6, math.nan), group=np.full(6, -1))
    write_trace_csv(trace, path, layout)
    with open(path, newline="") as fh:
        text = fh.read()
    with open(path, "w", newline="") as fh:
        fh.write(edit(text))


# each edit of a written trace file: its name, and the new text
_TEXT_EDITS = {
    "as written": lambda text: text,
    "header only": lambda text: text.split("\n", 1)[0] + "\n",
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comment lines": lambda text: text.replace(
        "\n", "\n# a comment, 1,2\n", 2).replace("\n3,", "\n#\n3,"),
    "trailing blank lines": lambda text: text + "\n\n\n",
    "crlf, comments and blank lines": lambda text: (
        text.replace("\n2,", "\n# note\n\n2,") + "\n").replace(
            "\n", "\r\n"),
}


class TestReaderByPathSameBits:
    """``read_trace_csv`` parses the body from the path, after the header's
    one line, and reads what the frozen reader that parsed it through the
    open handle read: every column's dtype, shape and bits, on both
    layouts, one and two risks, and files with CRLF line ends, comment
    lines, blank lines or no rows."""

    @pytest.mark.parametrize("edit", list(_TEXT_EDITS))
    @pytest.mark.parametrize("layout,k", [("interval", None), ("size", 2),
                                          ("interval", 2), ("size", None)])
    def test_columns_keep_their_bits(self, tmp_path, layout, k, edit):
        path = tmp_path / "trace.csv"
        _edited_trace_file(path, layout, k, _TEXT_EDITS[edit])
        with np.errstate(invalid="ignore"):  # a set of inf - inf cells
            new = read_trace_csv(path)
            _assert_same_bits(new, _frozen_read_trace_csv_by_handle(path))
        assert len(new) == (0 if edit == "header only" else 6)


class TestReaderPlaceholders:
    """The columns ``read_trace_csv`` cannot read from the file (y, group,
    and a size-layout trace's lo and hi) are read-only broadcasts of one
    value. The trace it returns holds the parsed rows, ``covered`` and, for
    the interval layout, the rebuilt set size: no other memory per row. A
    reader that filled the placeholders held 16 more bytes per row."""

    N = 20_000

    @pytest.mark.parametrize("layout", ["interval", "size"])
    def test_trace_holds_its_rows_and_no_placeholder(self, tmp_path, layout):
        n = self.N
        col = np.linspace(-1.0, 1.0, n)
        trace = StreamTrace(
            loss=col, theta_pre=col, theta_post=col,
            covered=np.ones(n, dtype=bool), size=col + 2.0, lo=col - 1.0,
            hi=col + 1.0, y=np.full(n, math.nan), group=np.full(n, -1))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, layout)
        read_trace_csv(path)  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = read_trace_csv(path)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        placeholders = ["y", "group"] + (["lo", "hi"] if layout == "size"
                                         else [])
        for name in placeholders:
            assert not getattr(back, name).flags.writeable, name
        np.testing.assert_array_equal(back.group, -1)
        assert np.isnan(back.y).all()
        # 8 bytes per parsed cell and 1 for covered, plus the interval
        # layout's set size
        columns = len(path.read_text().split("\n", 1)[0].split(","))
        rows = 8 * columns + 1 + (8 if layout == "interval" else 0)
        assert kept / n <= rows + 2, f"{kept / n:.1f} B/row, rows {rows}"
