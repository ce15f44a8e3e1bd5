import json
import math
from dataclasses import replace

import numpy as np
import pytest

from riskcal.cli import main as cli_main
from riskcal.engine import (_STOP, RiskSpec, _walk,
                            check_lower_theta_bound, check_recursion,
                            check_two_sided_risk_bound,
                            check_upper_risk_bound, check_upper_theta_bound,
                            control_update, run_stream,
                            two_sided_deviation_bound, upper_deviation_bound)
from riskcal.experiment import (certificate_for_trace, certificate_passed,
                                certificate_text, recompute_certificate,
                                validate_config, write_trace_csv)
from riskcal.losses import BinaryLossFn, CenterFailureFn, ImageMiscoverageFn
from riskcal.models import ConstantModel
from riskcal.multirisk import MultiRiskSpec, run_multi_stream
from riskcal.sets import (EMPTY_SET, FULL_SPACE, CqrConstructor,
                          ImageIntervalConstructor, PreviousResidualsHeuristic)
from riskcal.streams import ImageStreamConfig, image_stream
from riskcal.stretching import Stretch


def _spec(**kw):
    base = dict(r=(0.2, 0.1), gamma=(0.05, 0.05), m=(-5.0, -5.0),
                M=(5.0, 5.0), B=(1.0, 1.0))
    base.update(kw)
    return MultiRiskSpec(**base)


class TestSpecValidation:
    def test_scalar_broadcast(self):
        spec = MultiRiskSpec(r=(0.1, 0.2), gamma=0.05, m=-1.0, M=1.0, B=1.0)
        assert spec.gamma == (0.05, 0.05)
        assert spec.k == 2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MultiRiskSpec(r=(0.1,), gamma=(0.0,), m=(-1,), M=(1,), B=(1,))
        with pytest.raises(ValueError):
            MultiRiskSpec(r=(0.1,), gamma=(0.1,), m=(2,), M=(1,), B=(1,))
        with pytest.raises(ValueError):
            MultiRiskSpec(r=(0.1, 0.2), gamma=(0.1, 0.1, 0.1),
                          m=(-1, -1), M=(1, 1), B=(1, 1))


class _ConstantLoss:
    def __init__(self, value):
        self.value = value

    def __call__(self, y, s):
        return self.value


class _AdjRecorder:
    """A constructor that records the aggregated adjustment it is given."""

    scored = False

    def __init__(self):
        self.adj = []

    def build(self, x, adj, model):
        self.adj.append(adj)
        return ImageIntervalConstructor().build(x, adj, model)

    def observe(self, x, y, model):
        pass


def _adj(theta, stretch, spec):
    """The adjustment the loop hands the constructor at parameter theta."""
    spec = replace(spec, theta_init=tuple(theta))
    ctor = _AdjRecorder()
    frame = np.zeros((4, 4))
    run_multi_stream([(frame, frame)], ConstantModel(), ctor,
                     [_ConstantLoss(0.0)] * spec.k, spec, stretch)
    return ctor.adj[0]


class TestUpdateVector:
    def test_losses_at_targets_leave_theta_fixed(self):
        spec = _spec()
        theta = (0.3, -0.2)
        steps = control_update(spec)
        assert tuple(s(0, th, loss)
                     for s, th, loss in zip(steps, theta, spec.r)) == theta

    def test_direct_evaluation(self):
        spec = MultiRiskSpec(r=(0.2, 0.1), gamma=(0.1, 0.01), m=(-5, -5),
                             M=(5, 5), B=(1, 1))
        out = [s(0, 0.0, 1.0) for s in control_update(spec)]
        np.testing.assert_allclose(out, [0.08, 0.009])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _spec(theta_init=(0.0, 0.0, 0.0))

    def test_out_of_bound_loss(self):
        frame = np.zeros((4, 4))
        for bad in (2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="risk 2"):
                run_multi_stream([(frame, frame)], ConstantModel(),
                                 ImageIntervalConstructor(),
                                 [_ConstantLoss(0.0), _ConstantLoss(bad)],
                                 _spec())


class TestAggregate:
    def test_max(self):
        spec = _spec(aggregation="max")
        assert _adj([1.0, 3.0], Stretch("none"), spec) == 3.0

    def test_mean(self):
        spec = _spec(aggregation="mean")
        assert _adj([1.0, 3.0], Stretch("none"), spec) == 2.0

    def test_single_risk_degenerate(self):
        for agg in ("mean", "max"):
            s = MultiRiskSpec(r=(0.1,), gamma=(0.05,), m=(-1,), M=(1,),
                              B=(1,), aggregation=agg)
            assert _adj([0.7], Stretch("exponential"), s) == \
                pytest.approx(Stretch("exponential").apply(0.7))


def _image_run(spec, seed=0, n=4000, stretch="exponential"):
    ctor = ImageIntervalConstructor(PreviousResidualsHeuristic(5))
    loss_fns = [ImageMiscoverageFn(), CenterFailureFn()]
    stream = image_stream(ImageStreamConfig(seed=seed, shift_period=500,
                                            shift_factor=2.0, frame_corr=0.7), n)
    return run_multi_stream(stream, ConstantModel(), ctor, loss_fns, spec,
                            Stretch(stretch))


class TestCertificates:
    def test_upper_risk_bound_all_prefixes(self):
        spec = _spec()
        trace = _image_run(spec, seed=1)
        ok, viol = check_upper_risk_bound(trace, spec)
        assert ok, viol
        # spot-check the bound arithmetic against an independent evaluation
        T = len(trace)
        for i in range(spec.k):
            d = (spec.M[i] + 2 * spec.gamma[i] * spec.B[i]
                 - spec.theta_init[i]) / spec.gamma[i]
            assert upper_deviation_bound(spec, i, T) == pytest.approx(d / T)
            assert trace.loss[:, i].mean() <= spec.r[i] + d / T + 1e-9

    def test_two_sided_exact_control(self):
        spec = _spec(two_sided=True)
        trace = _image_run(spec, seed=2)
        for check in (check_upper_theta_bound, check_lower_theta_bound, check_upper_risk_bound,
                      check_two_sided_risk_bound):
            ok, viol = check(trace, spec)
            assert ok, (check.__name__, viol)
        T = len(trace)
        for i in range(spec.k):
            bound = two_sided_deviation_bound(spec, i, T)
            assert abs(trace.loss[:, i].mean() - spec.r[i]) <= bound + 1e-9

    def test_theta_boxes_every_step(self):
        spec = _spec(gamma=(0.2, 0.2), two_sided=True)
        trace = _image_run(spec, seed=3, n=2000)
        hi = np.asarray(spec.M) + 2 * np.asarray(spec.gamma) * np.asarray(spec.B)
        lo = np.asarray(spec.m) - 2 * np.asarray(spec.gamma) * np.asarray(spec.B)
        assert np.all(trace.theta_post <= hi) and np.all(trace.theta_post >= lo)


class TestAggregationDominance:
    def test_max_sets_contain_mean_sets(self):
        # same theta path replayed through both aggregations on a monotone
        # constructor: the max-aggregated set contains the mean-aggregated one
        rng = np.random.default_rng(0)
        ctor = ImageIntervalConstructor()
        model = ConstantModel()
        spec_mean = _spec(aggregation="mean")
        spec_max = _spec(aggregation="max")
        for _ in range(50):
            theta = rng.normal(size=2)
            x = rng.normal(size=(4, 4))
            a_mean = _adj(theta, Stretch("exponential"), spec_mean)
            a_max = _adj(theta, Stretch("exponential"), spec_max)
            s_mean = ctor.build(x, a_mean, model)
            s_max = ctor.build(x, a_max, model)
            assert np.all(s_max.lo <= s_mean.lo) and np.all(s_mean.hi <= s_max.hi)

    def test_wrong_number_of_losses(self):
        with pytest.raises(ValueError):
            run_multi_stream([], ConstantModel(), ImageIntervalConstructor(),
                             [ImageMiscoverageFn()], _spec())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_aborts_at_its_step(self, bad):
        calls = []

        def late_bad_loss(y, s):
            calls.append(1)
            return bad if len(calls) == 3 else 0.0

        frame = np.zeros((4, 4))
        with pytest.raises(ValueError, match="at step 3"):
            run_multi_stream([(frame, frame)] * 10, ConstantModel(),
                             ImageIntervalConstructor(),
                             [ImageMiscoverageFn(), late_bad_loss], _spec())


class TestSafeguardPrecedence:
    def test_full_space_wins_simultaneous_violation(self):
        # one coordinate above its ceiling, the other below its floor:
        # conservatism (the full space) wins so the upper-side guarantee
        # survives
        spec = _spec(two_sided=True, theta_init=(6.0, -6.0))
        frame = np.zeros((4, 4))
        trace = run_multi_stream([(frame, frame)], ConstantModel(),
                                 ImageIntervalConstructor(),
                                 [ImageMiscoverageFn(), CenterFailureFn()],
                                 spec)
        assert trace.covered[0]
        assert np.isinf(trace.size[0])
        assert trace.loss[0, 0] == 0.0

    def test_empty_set_below_floor_in_two_sided_mode(self):
        spec = _spec(two_sided=True, theta_init=(0.0, -6.0))
        frame = np.zeros((4, 4))
        trace = run_multi_stream([(frame, frame)], ConstantModel(),
                                 ImageIntervalConstructor(),
                                 [ImageMiscoverageFn(), CenterFailureFn()],
                                 spec)
        assert not trace.covered[0]
        assert trace.loss[0, 0] == 1.0 and trace.loss[0, 1] == 1.0

    def test_no_empty_safeguard_without_two_sided(self):
        spec = _spec(two_sided=False, theta_init=(0.0, -6.0))
        frame = np.zeros((4, 4))
        trace = run_multi_stream([(frame, frame)], ConstantModel(),
                                 ImageIntervalConstructor(),
                                 [ImageMiscoverageFn(), CenterFailureFn()],
                                 spec)
        # the constructor output is used as-is below the floor
        assert trace.covered[0]  # degenerate point intervals at pred == y


class _SentinelLoss:
    """The image losses' contract, L(full) = 0 and L(empty) = 1, with a
    fixed loss on every constructed set."""

    full_space_loss = 0.0
    empty_set_loss_min = 1.0
    bound = 1.0

    def __init__(self, other):
        self.other = other

    def __call__(self, y, s):
        if s is FULL_SPACE:
            return 0.0
        return 1.0 if s is EMPTY_SET else self.other


class TestTwoSidedConflict:
    """With k > 1 the empty-set safeguard does not make convergence
    two-sided: on a step where one coordinate is above its M and another
    below its m, the full space wins and the lower one keeps falling. The
    upper lines still hold and the lower lines fail; the certificate counts
    such conflict steps and marks its lower lines informational."""

    def test_lower_lines_fail_and_upper_lines_hold(self):
        spec = MultiRiskSpec(r=(0.05, 0.5), gamma=0.05, m=-5.0, M=5.0,
                             B=1.0, aggregation="max", two_sided=True)
        trace = run_multi_stream(
            [(None, 0.0)] * 5000, ConstantModel({0.05: -1.0, 0.95: 1.0}),
            CqrConstructor(), [_SentinelLoss(1.0), _SentinelLoss(0.0)], spec)
        assert trace.theta_post[-1, 1] < -100.0  # the floor is -5.1
        assert check_upper_theta_bound(trace, spec)[0]
        assert check_upper_risk_bound(trace, spec)[0]
        assert not check_lower_theta_bound(trace, spec)[0]
        assert not check_two_sided_risk_bound(trace, spec)[0]

    def test_certificate_marks_the_lower_lines_informational(self, tmp_path,
                                                             capsys):
        # the adversary's spec, resolved from a config as a run resolves it
        cfg = {"schema_version": 1, "steps": 5000, "trials": 1, "seed": 0,
               "stream": {"kind": "image"}, "model": {"kind": "constant"},
               "constructor": {"kind": "image"},
               "losses": [{"kind": "image_miscoverage", "r": 0.05},
                          {"kind": "center_failure", "r": 0.5}],
               "stretch": {"kind": "none"},
               "controller": {"kind": "multi", "gamma": 0.05, "m": -5.0,
                              "M": 5.0, "B": 1.0, "aggregation": "max",
                              "two_sided": True}}
        rc = validate_config(cfg)
        trace = run_multi_stream(
            [(None, 0.0)] * 5000, ConstantModel({0.05: -1.0, 0.95: 1.0}),
            CqrConstructor(), [_SentinelLoss(1.0), _SentinelLoss(0.0)],
            rc.spec)
        conflicts = _walk(trace, rc.spec).conflicts
        pre = trace.theta_pre
        assert conflicts == np.sum((pre[:, 0] > 5.0) & (pre[:, 1] < -5.0)) > 0

        lines = certificate_for_trace(trace, rc, "trial_000")
        verdicts = {name.split()[1]: (verdict, detail)
                    for name, verdict, detail in lines}
        assert verdicts["upper_theta_bound"][0] == "PASS"
        assert verdicts["upper_risk_bound"][0] == "PASS"
        for name in ("lower_theta_bound", "two_sided_risk_bound"):
            verdict, detail = verdicts[name]
            assert verdict == "INFO_FAIL"
            assert detail.endswith(f", {conflicts} conflict steps")
        assert certificate_passed(lines)

        # the run directory as run_experiment writes it: verify re-derives
        # the same lines from the trace alone
        out = tmp_path / "run"
        (out / "trial_000").mkdir(parents=True)
        (out / "config.json").write_text(json.dumps(cfg))
        write_trace_csv(trace, out / "trial_000" / "trace.csv", rc.layout)
        (out / "certificate.txt").write_text(certificate_text(lines))
        assert recompute_certificate(out) == lines
        capsys.readouterr()
        assert cli_main(["verify", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}: PASS\n"


class _GroupedAdversary:
    """Labels just outside every announced interval, with a group per step."""

    def __init__(self, n, seed=0):
        self.n = n
        self.t = 0
        self.rng = np.random.default_rng(seed)

    def next_x(self):
        if self.t >= self.n:
            return _STOP
        self.t += 1
        return self.rng.normal(size=1)

    def reveal(self, prediction_set):
        group = self.t % 3
        if hasattr(prediction_set, "hi") and np.isfinite(prediction_set.hi):
            return prediction_set.hi + self.rng.uniform(-1.0, 1.0), group
        return float(self.rng.normal()), group


class TestOneLoop:
    """The k-risk entry point runs the same loop as the scalar one."""

    def _pair(self, stretch):
        scalar = RiskSpec(r=0.1, gamma=0.05, m=-1.0, M=1.0, B=1.0,
                          theta_init=0.2)
        vector = MultiRiskSpec(r=(0.1,), gamma=(0.05,), m=(-1.0,), M=(1.0,),
                               B=(1.0,), theta_init=(0.2,), two_sided=True)
        model = {0.05: -1.0, 0.95: 1.0}
        a = run_stream(_GroupedAdversary(600), ConstantModel(model),
                       CqrConstructor(), BinaryLossFn(), scalar, stretch)
        b = run_multi_stream(_GroupedAdversary(600), ConstantModel(model),
                             CqrConstructor(), [BinaryLossFn()], vector,
                             stretch)
        return a, b

    @pytest.mark.parametrize("stretch", [
        Stretch("exponential"),
        Stretch("error_adaptive", beta_score=0.05, beta_loss=0.1,
                beta_low=-0.5, beta_high=0.5)])
    def test_one_two_sided_risk_matches_run_stream(self, stretch):
        a, b = self._pair(stretch)
        assert b.loss.shape == (600, 1) and a.loss.shape == (600,)
        for name in ("loss", "theta_pre", "theta_post"):
            np.testing.assert_array_equal(getattr(b, name)[:, 0],
                                          getattr(a, name))
        for name in ("covered", "size", "lo", "hi", "y", "group"):
            np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
        assert set(b.group) == {0, 1, 2}
        assert np.isfinite(b.y).all()

    def test_adaptive_stretch_moves_lambda_for_one_risk(self):
        # with lambda frozen at 0 the error-adaptive stretch is the identity
        _, frozen = self._pair(Stretch("none"))
        _, moving = self._pair(Stretch("error_adaptive", beta_score=0.05,
                                       beta_loss=0.1, beta_low=-0.5,
                                       beta_high=0.5))
        assert not np.array_equal(moving.lo, frozen.lo, equal_nan=True)

    def test_adaptive_stretch_rejected_for_several_risks(self):
        stretch = Stretch("score_adaptive", beta_score=0.1, beta_low=-1,
                          beta_high=1)
        with pytest.raises(ValueError, match="single risk"):
            run_multi_stream([], ConstantModel(), CqrConstructor(),
                             [BinaryLossFn(), BinaryLossFn()],
                             _spec(), stretch)

    def test_recursion_replays_the_update(self):
        spec = _spec(two_sided=True)
        trace = _image_run(spec, seed=4, n=300)
        update = control_update(spec)
        assert check_recursion(trace, update) == (True, 0.0)
        trace.theta_post[100, 1] += 1e-6
        ok, viol = check_recursion(trace, update)
        assert not ok and viol == pytest.approx(1e-6)
