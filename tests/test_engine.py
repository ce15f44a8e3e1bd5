import dataclasses
import math
import re
import tracemalloc
from operator import gt, le, lt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskcal import engine
from riskcal.baseline import (WindowQuantileConstructor, aci_spec,
                              aci_update, run_aci_stream)
from riskcal.engine import (MultiRiskSpec, RiskSpec, StreamTrace,
                            check_lower_theta_bound, check_recursion,
                            check_two_sided_risk_bound,
                            check_upper_risk_bound, check_upper_theta_bound,
                            control_update, loss_contract_guaranteed,
                            risk_bound, run_stream, two_sided_deviation_bound,
                            _run, _STOP)
from riskcal.losses import BinaryLossFn, McLossFn
from riskcal.models import ConstantModel, LinearPinballModel, ReplayModel
from riskcal.multirisk import run_multi_stream
from riskcal.sets import (EMPTY_SET, FULL_SPACE, CqrConstructor, Interval,
                          cqr_interval, cqr_score)
from riskcal.stretching import Stretch


def _spec(**kw):
    base = dict(r=0.1, gamma=0.05, m=-2.0, M=2.0, B=1.0)
    base.update(kw)
    return RiskSpec(**base)


class TestRiskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiskSpec(r=0.1, gamma=0.0, m=-1, M=1)
        with pytest.raises(ValueError):
            RiskSpec(r=0.1, gamma=0.1, m=1, M=1)
        with pytest.raises(ValueError):
            RiskSpec(r=0.1, gamma=0.1, m=-1, M=1, B=-1.0)
        with pytest.raises(ValueError):
            RiskSpec(r=2.0, gamma=0.1, m=-1, M=1, B=1.0)


_SCALARS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0,
                            1.5, -1.5]) | st.floats(-3.0, 3.0)


class TestOneValidator:
    @settings(max_examples=500, deadline=None, database=None,
              derandomize=True)
    @given(r=_SCALARS, gamma=_SCALARS, m=_SCALARS, M=_SCALARS, B=_SCALARS,
           theta_init=_SCALARS)
    def test_single_and_one_risk_multi_accept_the_same_specs(
            self, r, gamma, m, M, B, theta_init):
        def accepts(make):
            try:
                make()
            except ValueError:
                return False
            return True

        single = accepts(lambda: RiskSpec(r=r, gamma=gamma, m=m, M=M, B=B,
                                          theta_init=theta_init))
        multi = accepts(lambda: MultiRiskSpec(
            r=(r,), gamma=(gamma,), m=(m,), M=(M,), B=(B,),
            theta_init=(theta_init,), two_sided=True))
        # the rule, NaN included: each comparison with a NaN is False
        assert single == multi == (0 < gamma < math.inf and m < M and B > 0
                                   and -B <= r <= B
                                   and math.isfinite(theta_init))


class _ConstantLoss:
    """A loss that returns the same value at every step."""

    bound = 1.0
    full_space_loss = 0.0
    empty_set_loss_min = 1.0

    def __init__(self, value):
        self.value = value

    def __call__(self, y, s):
        return self.value


def _step(spec, theta, loss):
    """One application of the update step the loop runs."""
    (step,) = control_update(spec)
    return step(0, theta, loss)


class TestUpdateTheta:
    def test_loss_at_target_is_fixed_point(self):
        spec = _spec()
        assert _step(spec, 0.0, spec.r) == 0.0

    def test_direct_evaluation(self):
        assert _step(_spec(), 0.5, 1.0) == pytest.approx(0.545)

    def test_rejects_out_of_bound_loss(self):
        for bad in (1.5, -1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="at step 1"):
                run_stream(_iid_stream(0, 3), ConstantModel({0.05: 2, 0.95: 4}),
                           CqrConstructor(), _ConstantLoss(bad), _spec())

    def test_affine_in_loss(self):
        rng = np.random.default_rng(0)
        spec = _spec()
        for _ in range(200):
            theta = rng.normal()
            l1, l2 = rng.uniform(-1, 1, size=2)
            a = rng.uniform()
            mixed = _step(spec, theta, a * l1 + (1 - a) * l2)
            combo = a * _step(spec, theta, l1) + (1 - a) * _step(spec, theta, l2)
            assert mixed == pytest.approx(combo, rel=1e-12, abs=1e-12)

    def test_iid_bernoulli_stream_respects_deviation_bound(self):
        # independent oracle: simulate the loss stream and evaluate the
        # bound arithmetic outside the loop
        rng = np.random.default_rng(0)
        losses = (rng.uniform(size=10000) < 0.1).astype(float)
        spec = _spec()
        (step,) = control_update(spec)
        theta = spec.theta_init
        for t, loss in enumerate(losses):
            theta = step(t, theta, float(loss))
        slack = spec.M - spec.m + 4 * spec.gamma * spec.B
        assert abs(theta - spec.theta_init) <= slack
        assert abs(losses.mean() - 0.1) <= slack / spec.gamma / 10000


class TestSafeguardedConstruct:
    """The set the loop announces from its starting parameter."""

    def _first_step(self, theta_init):
        spec = _spec(theta_init=theta_init)
        return run_stream([(None, 3.0)], ConstantModel({0.05: 2.0, 0.95: 5.0}),
                          CqrConstructor(0.05, 0.95), BinaryLossFn(), spec)

    def test_above_M_full_space(self):
        trace = self._first_step(_spec().M + 1.0)
        assert trace.lo[0] == -math.inf and trace.hi[0] == math.inf
        assert trace.size[0] == math.inf

    def test_below_m_empty(self):
        trace = self._first_step(_spec().m - 1.0)
        assert math.isnan(trace.lo[0]) and math.isnan(trace.hi[0])
        assert trace.size[0] == 0.0 and not trace.covered[0]

    def test_zero_adjustment_passthrough(self):
        trace = self._first_step(0.0)
        assert (trace.lo[0], trace.hi[0]) == (2.0, 5.0)


class TestRiskBound:
    def test_direct_value(self):
        spec = RiskSpec(r=0.1, gamma=0.05, m=-1.0, M=1.0, B=1.0)
        assert risk_bound(spec, 1000) == pytest.approx(0.044)

    def test_doubling_T_halves_bound(self):
        spec = _spec()
        assert risk_bound(spec, 2000) == pytest.approx(risk_bound(spec, 1000) / 2)

    def test_vacuous_at_wide_safeguards(self):
        spec = RiskSpec(r=0.1, gamma=0.05, m=-9999.0, M=9999.0, B=1.0)
        assert risk_bound(spec, 12000) == pytest.approx(33.3303, abs=1e-3)

    def test_rejects_T_below_one(self):
        with pytest.raises(ValueError):
            risk_bound(_spec(), 0)
        with pytest.raises(ValueError):
            two_sided_deviation_bound(_spec(), 0, 0)


def _iid_stream(seed, n, mu=3.0):
    rng = np.random.default_rng(seed)
    return [(np.zeros(1), mu + rng.normal()) for _ in range(n)]


class _Adversary:
    """Places the label outside the announced set whenever possible."""

    def __init__(self, n):
        self.n = n
        self.t = 0

    def next_x(self):
        if self.t >= self.n:
            return _STOP
        self.t += 1
        return np.zeros(1)

    def reveal(self, prediction_set):
        if prediction_set is FULL_SPACE:
            return 0.0
        if prediction_set is EMPTY_SET:
            return 0.0  # anything misses the empty set
        return prediction_set.hi + 1.0


class TestRunStream:
    def test_empty_stream(self):
        trace = run_stream([], ConstantModel(), CqrConstructor(),
                           BinaryLossFn(), _spec())
        assert len(trace) == 0

    def test_trace_has_one_record_per_step(self):
        trace = run_stream(_iid_stream(0, 137), ConstantModel({0.05: 2, 0.95: 4}),
                           CqrConstructor(), BinaryLossFn(), _spec())
        assert len(trace) == 137
        for arr in (trace.loss, trace.theta_pre, trace.theta_post,
                    trace.covered, trace.size, trace.lo, trace.hi):
            assert len(arr) == 137

    def test_synthetic_binary_loss_within_c_over_t_of_target(self):
        # moderate safeguards make the deterministic bound informative:
        # coverage sits within (M-m+4gB)/(gamma*T) of 90% regardless of model
        from riskcal.streams import SyntheticConfig, synthetic_stream
        spec = RiskSpec(r=0.1, gamma=0.05, m=-5.0, M=5.0, B=1.0)
        trace = run_stream(synthetic_stream(SyntheticConfig(seed=1), 20000),
                           ConstantModel(), CqrConstructor(), BinaryLossFn(),
                           spec)
        assert abs(trace.loss.mean() - 0.1) <= risk_bound(spec, 20000)
        assert abs((1 - trace.covered.mean()) - 0.1) <= risk_bound(spec, 20000)

    def test_adversarial_stream_bound_still_holds(self):
        spec = RiskSpec(r=0.1, gamma=0.1, m=-1.0, M=1.0, B=1.0)
        trace = run_stream(_Adversary(5000),
                           ConstantModel({0.05: -1.0, 0.95: 1.0}),
                           CqrConstructor(), BinaryLossFn(), spec)
        for check in (check_two_sided_risk_bound, check_upper_theta_bound,
                      check_lower_theta_bound):
            ok, viol = check(trace, spec)
            assert ok, (check.__name__, viol)

    def test_theta_box_on_every_step(self):
        spec = _spec(gamma=0.3)
        trace = run_stream(_Adversary(2000),
                           ConstantModel({0.05: -1.0, 0.95: 1.0}),
                           CqrConstructor(), BinaryLossFn(), spec)
        lo = spec.m - 2 * spec.gamma * spec.B
        hi = spec.M + 2 * spec.gamma * spec.B
        assert np.all(trace.theta_pre >= lo) and np.all(trace.theta_pre <= hi)
        assert np.all(trace.theta_post >= lo) and np.all(trace.theta_post <= hi)

    def test_recursion_certificate(self):
        trace = run_stream(_iid_stream(3, 500), ConstantModel({0.05: 2, 0.95: 4}),
                           CqrConstructor(), BinaryLossFn(), _spec())
        ok, viol = check_recursion(trace, control_update(_spec()))
        assert ok and viol == 0.0

    def test_no_peek_replay_prefix_is_bit_exact(self):
        spec = _spec()

        def make_trace(n):
            from riskcal.streams import SyntheticConfig, synthetic_stream
            from riskcal.models import LinearPinballModel
            stream = synthetic_stream(SyntheticConfig(seed=7), n)
            model = LinearPinballModel(5, (0.05, 0.95), lr=1.0)
            return run_stream(stream, model, CqrConstructor(), BinaryLossFn(),
                              spec, Stretch("exponential"))

        full = make_trace(800)
        prefix = make_trace(300)
        np.testing.assert_array_equal(full.lo[:300], prefix.lo)
        np.testing.assert_array_equal(full.hi[:300], prefix.hi)
        np.testing.assert_array_equal(full.theta_post[:300], prefix.theta_post)
        np.testing.assert_array_equal(full.loss[:300], prefix.loss)

    def test_stretch_none_matches_run_without_stretch_layer(self):
        spec = _spec()
        t1 = run_stream(_iid_stream(5, 400), ConstantModel({0.05: 2, 0.95: 4}),
                        CqrConstructor(), BinaryLossFn(), spec)
        t2 = run_stream(_iid_stream(5, 400), ConstantModel({0.05: 2, 0.95: 4}),
                        CqrConstructor(), BinaryLossFn(), spec, Stretch("none"))
        np.testing.assert_array_equal(t1.theta_post, t2.theta_post)
        np.testing.assert_array_equal(t1.lo, t2.lo)
        np.testing.assert_array_equal(t1.hi, t2.hi)

    def test_adaptive_stretch_requires_scored_constructor(self):
        from riskcal.sets import ImageIntervalConstructor
        stretch = Stretch("score_adaptive", beta_score=0.1, beta_low=-1,
                          beta_high=1)
        with pytest.raises(ValueError):
            run_stream([], ConstantModel(), ImageIntervalConstructor(),
                       BinaryLossFn(), _spec(), stretch)

    def test_loss_outside_bound_aborts(self):
        with pytest.raises(ValueError):
            run_stream(_iid_stream(0, 10), ConstantModel({0.05: 2, 0.95: 4}),
                       CqrConstructor(), _ConstantLoss(5.0), _spec())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_aborts_at_its_step(self, bad):
        # NaN fails every ordered comparison, so a check phrased as
        # "loss < -B or loss > B" would let it through into theta
        class LateBadLoss:
            bound = 1.0
            full_space_loss = 0.0
            empty_set_loss_min = 1.0

            def __init__(self):
                self.calls = 0

            def __call__(self, y, s):
                self.calls += 1
                return bad if self.calls == 3 else 0.0

        with pytest.raises(ValueError, match="at step 3"):
            run_stream(_iid_stream(0, 10), ConstantModel({0.05: 2, 0.95: 4}),
                       CqrConstructor(), LateBadLoss(), _spec())


class _Recorder:
    """A list of (x, y) items as an adaptive stream that records every
    announced set."""

    def __init__(self, items):
        self._items = iter(items)
        self._y = None
        self.sets = []

    def next_x(self):
        item = next(self._items, None)
        if item is None:
            return _STOP
        x, self._y = item
        return x

    def reveal(self, prediction_set):
        self.sets.append(prediction_set)
        return self._y


def _reference_adaptive(items, model, loss_fn, spec, stretch):
    """The one-risk adaptive step as the loop made it when it kept a Stretch:
    ``updated`` every step, and a score that predicts both quantiles again.
    Returns the announced sets and the lam of every step."""
    theta, prev_score, prev_loss = spec.theta_init, None, 0.0
    sets, lams = [], []
    for x, y in items:
        if prev_score is not None:
            stretch = stretch.updated(prev_score, prev_loss, spec.r)
        lams.append(stretch.lam)
        if theta > spec.M:
            pred_set = FULL_SPACE
        elif theta < spec.m:
            pred_set = EMPTY_SET
        else:
            pred_set = cqr_interval(model.predict(x, 0.05),
                                    model.predict(x, 0.95),
                                    stretch.apply(theta))
        sets.append(pred_set)
        loss = loss_fn(y, pred_set)
        theta = theta + spec.gamma * (loss - spec.r)
        prev_score = cqr_score(model.predict(x, 0.05), model.predict(x, 0.95),
                               y)
        prev_loss = loss
        model.update(x, y)
    return sets, lams


def _set_bits(pred_set):
    if pred_set is FULL_SPACE or pred_set is EMPTY_SET:
        return pred_set
    return np.float64(pred_set.lo).tobytes(), np.float64(pred_set.hi).tobytes()


class TestAdaptiveStepSameBits:
    """The loop keeps lam as a float and the CQR score reuses the quantiles
    its build took; every announced set and every lam equal those of the
    reference step, bit for bit. Tight safeguards make steps without a build
    alternate with built ones, and the replayed predictions change with the
    model's cursor, so a quantile carried over from another step would
    show."""

    N = 600

    def _items(self, seed, same_x):
        rng = np.random.default_rng(seed)
        shared = np.zeros(1)
        return [(shared if same_x else np.full(1, float(t)),
                 float(rng.normal(0.0, 1.5))) for t in range(self.N)]

    def _model(self, seed):
        rng = np.random.default_rng(seed + 100)
        mid = rng.normal(0.0, 1.0, self.N)
        half = rng.uniform(0.0, 2.0, self.N)
        return ReplayModel({0.05: mid - half, 0.95: mid + half})

    @pytest.mark.parametrize("same_x", [False, True])
    @pytest.mark.parametrize("kind,loss,spec", [
        ("score_adaptive", BinaryLossFn,
         RiskSpec(r=0.5, gamma=0.5, m=-0.3, M=0.3)),
        ("error_adaptive", BinaryLossFn,
         RiskSpec(r=0.5, gamma=0.5, m=-0.3, M=0.3)),
        ("error_adaptive", lambda: McLossFn(3),
         RiskSpec(r=0.5, gamma=0.2, m=-0.4, M=0.4, B=3.0)),
    ])
    def test_sets_and_lams_equal_the_reference(self, kind, loss, spec,
                                               same_x):
        fields = {"beta_score": 0.2, "beta_low": -0.5, "beta_high": 0.5}
        if kind == "error_adaptive":
            fields["beta_loss"] = 0.7
        lams = []

        class Logged(Stretch):
            def next_lam(self, *args):
                lam = super().next_lam(*args)
                lams.append(lam)
                return lam

        items = self._items(3, same_x)
        stream = _Recorder(items)
        trace = run_stream(stream, self._model(3), CqrConstructor(),
                           loss(), spec, Logged(kind, **fields))
        ref_sets, ref_lams = _reference_adaptive(
            items, self._model(3), loss(), spec, Stretch(kind, **fields))

        assert len(trace) == self.N
        assert [_set_bits(s) for s in stream.sets] == \
            [_set_bits(s) for s in ref_sets]
        # the first step's lam is the stretch's own, 0.0
        assert [np.float64(v).tobytes() for v in [0.0, *lams]] == \
            [np.float64(v).tobytes() for v in ref_lams]
        # the clip engaged, and steps without a build follow built ones
        assert -0.5 in lams or 0.5 in lams
        guarded = [s is FULL_SPACE or s is EMPTY_SET for s in ref_sets]
        assert sum(not a and b for a, b in zip(guarded, guarded[1:])) >= 20
        assert sum(a and not b for a, b in zip(guarded, guarded[1:])) >= 20


class TestLossContractFlag:
    def test_degenerate_target_not_guaranteed(self):
        # a zero target admits no loss with L(full) < r; runs are accepted
        # but the certificate must say the bound is not guaranteed
        spec = RiskSpec(r=0.0, gamma=0.05, m=-2.0, M=2.0, B=1.0)
        assert not loss_contract_guaranteed(BinaryLossFn(), spec)
        assert loss_contract_guaranteed(BinaryLossFn(), _spec(r=0.1))


class TestPrefixDeviationBoundForm:
    def test_matches_exact_expression(self):
        spec = _spec(theta_init=0.5)
        m_lo = spec.m - 2 * spec.gamma * spec.B
        m_hi = spec.M + 2 * spec.gamma * spec.B
        expect = max(spec.theta_init - m_lo, m_hi - spec.theta_init) / (100 * spec.gamma)
        assert two_sided_deviation_bound(spec, 0, 100) == pytest.approx(expect)

    def test_never_looser_than_risk_bound_midpoint(self):
        # with theta_init at the midpoint the two forms agree
        spec = RiskSpec(r=0.1, gamma=0.05, m=-2.0, M=2.0, B=1.0, theta_init=0.0)
        assert two_sided_deviation_bound(spec, 0, 50) <= risk_bound(spec, 50)


class TestChecksOnCorruptTraces:
    @pytest.mark.parametrize("column", ["loss", "theta_pre", "theta_post"])
    def test_nan_in_a_column_fails_its_checks(self, column):
        # a NaN read back from a damaged CSV must never pass a check
        spec = _spec()
        trace = run_stream(_iid_stream(1, 50), ConstantModel({0.05: 2, 0.95: 4}),
                           CqrConstructor(), BinaryLossFn(), spec)
        getattr(trace, column)[20] = math.nan
        checks = {"loss": (check_two_sided_risk_bound, check_upper_risk_bound),
                  "theta_pre": (check_upper_theta_bound,
                                check_lower_theta_bound),
                  "theta_post": (check_upper_theta_bound,
                                 check_lower_theta_bound)}[column]
        for check in checks:
            assert not check(trace, spec)[0], check.__name__
        assert not check_recursion(trace, control_update(spec))[0]


class TestRecursionIsExact:
    """On an untouched run, the update its runner applied replays every
    recorded parameter with no violation at all, for every controller."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["single", "multi", "aci"]),
           n=st.integers(0, 300), seed=st.integers(0, 2**16),
           k=st.sampled_from([2, 3]), two_sided=st.booleans(),
           aggregation=st.sampled_from(["mean", "max"]),
           gamma=st.floats(0.01, 0.5))
    def test_untouched_run_replays_exactly(self, kind, n, seed, k, two_sided,
                                           aggregation, gamma):
        stream = _iid_stream(seed, n)
        model = ConstantModel({0.05: 2.0, 0.95: 4.0})
        if kind == "single":
            spec = _spec(gamma=gamma)
            trace = run_stream(stream, model, CqrConstructor(),
                               BinaryLossFn(), spec)
            update = control_update(spec)
        elif kind == "multi":
            loss_fns = [BinaryLossFn(), McLossFn(3), BinaryLossFn()][:k]
            spec = MultiRiskSpec(r=(0.1, 1.0, 0.3)[:k], gamma=gamma, m=-1.0,
                                 M=1.0, B=tuple(fn.bound for fn in loss_fns),
                                 aggregation=aggregation, two_sided=two_sided)
            trace = run_multi_stream(stream, model, CqrConstructor(),
                                     loss_fns, spec)
            update = control_update(spec)
        else:
            trace = run_aci_stream(stream, model, gamma=gamma, alpha=0.1,
                                   window_size=50, warmup=10)
            update = aci_update(gamma, 0.1, 10)
        assert len(trace) == n
        assert check_recursion(trace, update) == (True, 0.0)

    def test_step_count_must_match_the_risks(self):
        model = ConstantModel({0.05: 2.0, 0.95: 4.0})
        two = MultiRiskSpec(r=(0.1, 0.1), gamma=0.05, m=-1.0, M=1.0, B=1.0)
        three = MultiRiskSpec(r=(0.1,) * 3, gamma=0.05, m=-1.0, M=1.0, B=1.0)
        losses = (BinaryLossFn(), BinaryLossFn())
        trace = run_multi_stream(_iid_stream(0, 20), model, CqrConstructor(),
                                 losses, two)
        single = run_stream(_iid_stream(0, 20), model, CqrConstructor(),
                            BinaryLossFn(), _spec())
        for bad, steps in ((trace, control_update(_spec())),
                           (trace, control_update(three)),
                           (single, control_update(two))):
            with pytest.raises(ValueError, match="update steps for"):
                check_recursion(bad, steps)
        with pytest.raises(ValueError, match="1 update steps for 2 risks"):
            _run(_iid_stream(0, 20), model, CqrConstructor(), losses, two,
                 control_update(_spec()), None, None)
        with pytest.raises(ValueError, match="2 update steps for 1 risks"):
            _run(_iid_stream(0, 20), model, CqrConstructor(),
                 (BinaryLossFn(),), _spec(), control_update(two), None, None)


class TestRiskCountMustMatchTheTrace:
    """Every check raises, naming both counts, when its spec or update is
    for another number of risks than the trace's, instead of broadcasting
    one risk's lines over every column or one column over every risk."""

    @pytest.mark.parametrize("check", [
        check_upper_theta_bound, check_lower_theta_bound,
        check_upper_risk_bound, check_two_sided_risk_bound, check_recursion])
    def test_every_check_both_ways(self, check):
        model = ConstantModel({0.05: 2.0, 0.95: 4.0})
        two = MultiRiskSpec(r=(0.1, 0.1), gamma=0.05, m=-1.0, M=1.0, B=1.0,
                            two_sided=True)
        pair = run_multi_stream(_iid_stream(0, 20), model, CqrConstructor(),
                                (BinaryLossFn(), BinaryLossFn()), two)
        single = run_stream(_iid_stream(0, 20), model, CqrConstructor(),
                            BinaryLossFn(), _spec())
        for trace, spec, spec_k, trace_k in ((pair, _spec(), 1, 2),
                                             (single, two, 2, 1)):
            arg = control_update(spec) if check is check_recursion else spec
            with pytest.raises(ValueError, match=rf"got (a spec of )?"
                                                 rf"{spec_k} .* {trace_k} risks"):
                check(trace, arg)

    @pytest.mark.parametrize("check", [
        check_upper_theta_bound, check_lower_theta_bound,
        check_upper_risk_bound, check_two_sided_risk_bound, check_recursion])
    @pytest.mark.parametrize("name,shape", [
        ("loss", (50, 2)), ("theta_post", (50, 2)), ("theta_post", (45,))])
    def test_columns_of_another_shape_than_theta_pre(self, check, name,
                                                     shape):
        # a one-risk trace of 50 rows with one column widened or cut short,
        # which broadcast over the other columns or passed unread
        model = ConstantModel({0.05: 2.0, 0.95: 4.0})
        trace = run_stream(_iid_stream(0, 50), model, CqrConstructor(),
                           BinaryLossFn(), _spec())
        col = getattr(trace, name)
        bad = (np.column_stack([col, col]) if len(shape) == 2
               else col[:shape[0]])
        trace = dataclasses.replace(trace, **{name: bad})
        arg = control_update(_spec()) if check is check_recursion else _spec()
        with pytest.raises(ValueError, match=re.escape(
                f"trace {name} has shape {shape} where theta_pre has "
                f"(50,)")):
            check(trace, arg)


# ---------------------------------------------------------------------------
# The loop as it was before it bound its per-run choices: a frozen copy, with
# the update functions of the same version, kept as the oracle of the
# same-bits test below.
# ---------------------------------------------------------------------------

def _frozen_control_update(spec):
    risks = spec.risks
    r, gamma = risks.r, risks.gamma
    if risks.k == 1:
        (r0,), (g0,) = r, gamma

        def update(t, theta, losses):
            return (theta[0] + g0 * (losses[0] - r0),)
    else:
        def update(t, theta, losses):
            return tuple([th + g * (loss - ri)
                          for th, loss, g, ri in zip(theta, losses, gamma, r)])

    return update


def _frozen_aci_update(gamma, alpha, warmup):
    def update(t, theta, losses):
        return (theta[0] + gamma * (alpha - losses[0]) * (t >= warmup),)

    return update


def _frozen_mean(values):
    return float(np.mean(list(values)))


def _frozen_run(stream, model, constructor, loss_fns, spec, update, stretch,
                n_steps):
    risks = spec.risks
    k = risks.k
    if len(loss_fns) != k:
        raise ValueError(f"got {len(loss_fns)} losses for {k} risks")
    if stretch is None:
        stretch = Stretch()
    adaptive = stretch.is_adaptive
    if adaptive and not getattr(constructor, "scored", False):
        raise ValueError(
            "adaptive stretching needs a constructor with a conformity score")
    if adaptive and k > 1:
        raise ValueError(
            "adaptive stretching needs a single risk: no one loss and target "
            f"drives lambda, got {k} risks")
    apply = stretch.apply
    if adaptive:
        next_lam, lam = stretch.next_lam, stretch.lam
    plain = not hasattr(stream, "next_x")
    if plain:
        items = iter(stream)
    else:
        next_x, reveal = stream.next_x, stream.reveal
    M = risks.M
    m = risks.m if risks.two_sided else (-math.inf,) * k
    B = risks.B
    one = k == 1
    if one:
        (M0,), (m0,), (B0,), (loss_fn,) = M, m, B, loss_fns
    aggregate = _frozen_mean if risks.aggregation == "mean" else max
    r_first = risks.r[0]
    losses_rec, theta_pre, theta_post, covered = [], [], [], []
    sizes, los, his, ys, groups = [], [], [], [], []
    theta = risks.theta_init
    t = 0
    prev_score = None
    prev_loss = 0.0
    while n_steps is None or t < n_steps:
        if plain:
            item = next(items, _STOP)
            if item is _STOP:
                break
            if len(item) == 3:
                x, y, group = item
            else:
                x, y = item
                group = -1
        else:
            x = next_x()
            if x is _STOP:
                break
        if prev_score is not None:
            lam = next_lam(lam, prev_score, prev_loss, r_first)
        if one:
            th = theta[0]
            over, under = th > M0, th < m0
        else:
            over, under = any(map(gt, theta, M)), any(map(lt, theta, m))
        if over:
            pred_set = FULL_SPACE
        elif under:
            pred_set = EMPTY_SET
        elif adaptive:
            pred_set = constructor.build(x, th + lam, model)
        else:
            pred_set = constructor.build(
                x, apply(th) if one else aggregate(map(apply, theta)), model)
        if not plain:
            revealed = reveal(pred_set)
            if isinstance(revealed, tuple):
                y, group = revealed
            else:
                y, group = revealed, -1
        if one:
            loss = loss_fn(y, pred_set)
            losses = (loss,)
            bad = not -B0 <= loss <= B0
        else:
            losses = [fn(y, pred_set) for fn in loss_fns]
            bad = not all(map(le, map(abs, losses), B))
        if bad:
            i = next(i for i in range(k) if not -B[i] <= losses[i] <= B[i])
            raise ValueError(
                f"loss {losses[i]} outside declared bound [-{B[i]}, {B[i]}] "
                f"at step {t + 1}" + (f" (risk {i + 1})" if k > 1 else ""))
        losses_rec.extend(losses)
        theta_pre.extend(theta)
        covered.append(pred_set.contains(y))
        sizes.append(pred_set.size())
        if isinstance(pred_set, Interval):
            los.append(pred_set.lo)
            his.append(pred_set.hi)
        elif pred_set is FULL_SPACE:
            los.append(-math.inf)
            his.append(math.inf)
        else:
            los.append(math.nan)
            his.append(math.nan)
        ys.append(y if isinstance(y, (int, float, np.floating)) else math.nan)
        groups.append(group)
        theta = update(t, theta, losses)
        theta_post.extend(theta)
        t += 1
        if adaptive:
            prev_score = constructor.score(x, y, model)
            prev_loss = losses[0]
        constructor.observe(x, y, model)
        model.update(x, y)
    shape = (t,) if isinstance(spec, RiskSpec) else (t, k)
    return StreamTrace(
        loss=np.asarray(losses_rec, dtype=float).reshape(shape),
        theta_pre=np.asarray(theta_pre, dtype=float).reshape(shape),
        theta_post=np.asarray(theta_post, dtype=float).reshape(shape),
        covered=np.asarray(covered, dtype=bool),
        size=np.asarray(sizes, dtype=float),
        lo=np.asarray(los, dtype=float),
        hi=np.asarray(his, dtype=float),
        y=np.asarray(ys, dtype=float),
        group=np.asarray(groups, dtype=int),
    )


class _CountedItems:
    """A list of stream items that counts how many the loop pulled."""

    def __init__(self, items):
        self._items = iter(items)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.pulled += 1
        return item


class _CountedAdaptive:
    """An adaptive stream over pre-drawn labels: each ``next_x`` call counts
    as a pull; ``reveal`` may place the label just above an announced
    interval, and may return a group."""

    def __init__(self, xs, labels, groups, adversarial):
        self._xs, self._labels, self._groups = xs, labels, groups
        self._adversarial = adversarial
        self.pulled = 0

    def next_x(self):
        if self.pulled == len(self._xs):
            return _STOP
        self.pulled += 1
        return self._xs[self.pulled - 1]

    def reveal(self, prediction_set):
        y = self._labels[self.pulled - 1]
        if self._adversarial and hasattr(prediction_set, "hi"):
            y = prediction_set.hi + 0.5
        if self._groups is None:
            return y
        return y, self._groups[self.pulled - 1]


_LABELS = st.floats(-3.0, 3.0) | st.sampled_from(
    [math.nan, math.inf, -math.inf])


@st.composite
def _loop_cases(draw):
    """One run's parts, drawn as plain values that ``_build_case`` turns into
    fresh objects for each side."""
    mode = draw(st.sampled_from(
        ["single", "single_adaptive", "aci", "multi2", "multi3"]))
    k = int(mode[-1]) if mode.startswith("multi") else 1
    aci = mode == "aci"
    n = draw(st.integers(0, 30))
    case = {
        "k": k, "aci": aci,
        "labels": draw(st.lists(_LABELS, min_size=n, max_size=n)),
        "q": draw(st.lists(st.tuples(st.floats(-2.0, 2.0),
                                     st.floats(-2.0, 2.0)),
                           min_size=n, max_size=n)),
        "protocol": draw(st.sampled_from(
            ["pairs", "triples", "adaptive", "adaptive_groups"])),
        "adversarial": draw(st.booleans()),
        "x_width": draw(st.sampled_from([1, 3])),
        # the y column keeps Python and numpy scalars, NaN for anything else
        "label_type": draw(st.sampled_from(
            [float, float, np.float64, round, np.asarray])),
        "model": draw(st.sampled_from(["replay", "replay", "pinball"])),
        "n_steps": draw(st.sampled_from(
            [None, -1, 0, max(n - 3, 0), n + 2])),
        "gamma": draw(st.sampled_from([0.05, 0.3, 1.0])),
        "bound": draw(st.sampled_from([0.2, 0.6, 3.0])),
    }
    if aci:
        case["window"] = draw(st.integers(1, 6))
        case["warmup"] = draw(st.integers(0, 4))
        case["alpha"] = draw(st.sampled_from([0.1, 0.5]))
        return case
    case["stretch"] = draw(st.sampled_from(
        ["score_adaptive", "error_adaptive"] if mode == "single_adaptive"
        else ["none", "exponential", "exp_linear_zone"]))
    case["losses"] = draw(st.lists(st.sampled_from(["binary", "mc"]),
                                   min_size=k, max_size=k))
    case["multi_spec"] = k > 1 or draw(st.booleans())
    case["two_sided"] = draw(st.booleans())
    case["aggregation"] = draw(st.sampled_from(["max", "mean"]))
    return case


def _build_case(case, frozen):
    """Fresh stream, model, constructor, losses, spec, update and stretch for
    one side: the library's update functions, or the frozen ones."""
    n = len(case["labels"])
    convert = case["label_type"]
    labels = [convert(y) if convert is not round or math.isfinite(y) else y
              for y in case["labels"]]
    xs = [np.full(case["x_width"], 0.1 * t) for t in range(n)]
    groups = [t % 3 for t in range(n)]
    protocol = case["protocol"]
    if protocol == "pairs":
        stream = _CountedItems(list(zip(xs, labels)))
    elif protocol == "triples":
        stream = _CountedItems(list(zip(xs, labels, groups)))
    else:
        stream = _CountedAdaptive(
            xs, labels, groups if protocol == "adaptive_groups" else None,
            case["adversarial"])
    if case["model"] == "replay":
        q = np.array(case["q"]).reshape(n, 2)
        model = ReplayModel({0.05: q[:, 0], 0.95: q[:, 1]})
    else:
        model = LinearPinballModel(case["x_width"], (0.05, 0.95), lr=0.5)
    gamma = case["gamma"]
    if case["aci"]:
        alpha, warmup = case["alpha"], case["warmup"]
        spec = aci_spec(gamma, alpha)
        update = (_frozen_aci_update if frozen else aci_update)(
            gamma, alpha, warmup)
        constructor = WindowQuantileConstructor(case["window"],
                                                warmup=warmup)
        loss_fns, stretch = (BinaryLossFn(),), None
    else:
        k, bound = case["k"], case["bound"]
        loss_fns = tuple(BinaryLossFn() if kind == "binary" else McLossFn(3)
                         for kind in case["losses"])
        B = tuple(fn.bound for fn in loss_fns)
        r = tuple(0.3 if kind == "binary" else 1.0 for kind in case["losses"])
        if case["multi_spec"]:
            spec = MultiRiskSpec(r=r, gamma=gamma, m=-bound, M=bound, B=B,
                                 aggregation=case["aggregation"],
                                 two_sided=case["two_sided"])
        else:
            spec = RiskSpec(r=r[0], gamma=gamma, m=-bound, M=bound, B=B[0])
        update = (_frozen_control_update if frozen else control_update)(spec)
        constructor = CqrConstructor()
        fields = {}
        if case["stretch"] in ("score_adaptive", "error_adaptive"):
            fields = {"beta_score": 0.2, "beta_loss": 0.5,
                      "beta_low": -0.5, "beta_high": 0.5}
        stretch = Stretch(case["stretch"], **fields)
    return (stream, model, constructor, loss_fns, spec, update, stretch,
            case["n_steps"])


def _outcome(run, case, frozen):
    parts = _build_case(case, frozen)
    try:
        trace = run(*parts)
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc)), parts[0].pulled
    return trace, parts[0].pulled


def _column_bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, (a.view(np.int64) if a.dtype == float
                              else a).tolist()


class TestOneLoopSameBits:
    """The loop that binds its per-run choices once gives every trace
    column, and every error, of the frozen loop, bit for bit, and pulls the
    same number of items from the stream: the benchmark's clock counts
    pulls, so cutting a stream at ``n_steps`` must not pull one more."""

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(case=_loop_cases())
    def test_every_column_and_pull_count_equal_the_frozen_loop(self, case):
        new, new_pulled = _outcome(_run, case, frozen=False)
        old, old_pulled = _outcome(_frozen_run, case, frozen=True)
        assert new_pulled == old_pulled
        if isinstance(old, tuple):
            assert new == old
            return
        assert not isinstance(new, tuple), new
        for column in ("loss", "theta_pre", "theta_post", "covered", "size",
                       "lo", "hi", "y", "group"):
            assert _column_bits(getattr(new, column)) == \
                _column_bits(getattr(old, column)), column

    def test_one_case_reaches_every_set_kind(self):
        # safeguard steps, inverted intervals, NaN labels and a cut stream
        # all occur in this one case
        case = {"k": 2, "aci": False, "labels": [0.0, math.nan, 5.0, -5.0] * 5,
                "q": [(1.0, -1.0), (-0.1, 0.1), (0.0, 0.5), (-2.0, 2.0)] * 5,
                "protocol": "adaptive_groups", "adversarial": False,
                "x_width": 3, "label_type": float, "model": "replay",
                "n_steps": 15, "gamma": 0.3, "bound": 0.6, "stretch": "none",
                "losses": ["binary", "mc"], "multi_spec": True,
                "two_sided": True, "aggregation": "mean"}
        trace, pulled = _outcome(_run, case, frozen=False)
        assert pulled == 15 and len(trace) == 15
        seen = set(
            "full" if lo == -math.inf else "empty" if math.isnan(lo)
            else "interval" for lo in trace.lo)
        assert seen == {"full", "empty", "interval"}
        assert np.isnan(trace.y).any()


@st.composite
def _chunk_cases(draw):
    """A ``_loop_cases`` run, a small chunk size C, and an ``n_steps`` at a
    chunk boundary: None, -1, 0, C - 1, C, C + 1 or 2C + 1. The stream may
    hold fewer items than ``n_steps``, and then ends early."""
    case = draw(_loop_cases())
    chunk = draw(st.sampled_from([1, 2, 3, 5]))
    case["n_steps"] = draw(st.sampled_from(
        [None, -1, 0, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
    return case, chunk


class TestChunkedRecordingSameBits:
    """The loop moves its lists into typed arrays every ``_CHUNK`` steps;
    with a chunk of a few steps, every column and error still equals the
    frozen loop's, for one to three risks, the baseline and adaptive
    stretches, and streams that end inside, at or past a chunk boundary."""

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(drawn=_chunk_cases())
    def test_every_column_equals_the_frozen_loop(self, drawn):
        case, chunk = drawn
        with mock.patch.object(engine, "_CHUNK", chunk):
            new, new_pulled = _outcome(_run, case, frozen=False)
        old, old_pulled = _outcome(_frozen_run, case, frozen=True)
        assert new_pulled == old_pulled
        if isinstance(old, tuple):
            assert new == old
            return
        assert not isinstance(new, tuple), new
        for column in ("loss", "theta_pre", "theta_post", "covered", "size",
                       "lo", "hi", "y", "group"):
            assert _column_bits(getattr(new, column)) == \
                _column_bits(getattr(old, column)), column

    @pytest.mark.parametrize("n_steps", [None, 7, 8, 9, 17, 40])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_boundaries_with_every_risk_count(self, n_steps, k):
        # 20 labels: a run of 40 steps ends early, inside its third chunk
        case = {"k": k, "aci": False,
                "labels": [0.5 * (t % 7) - 1.5 for t in range(20)],
                "q": [(-1.0, 1.0), (0.2, 0.4), (1.0, -1.0)] * 6 + [(0, 0)] * 2,
                "protocol": "triples", "adversarial": False, "x_width": 1,
                "label_type": float, "model": "replay", "n_steps": n_steps,
                "gamma": 0.3, "bound": 0.6, "stretch": "exponential",
                "losses": ["binary", "mc", "binary"][:k],
                "multi_spec": k > 1, "two_sided": True,
                "aggregation": "mean"}
        with mock.patch.object(engine, "_CHUNK", 8):
            new, _ = _outcome(_run, case, frozen=False)
        old, _ = _outcome(_frozen_run, case, frozen=True)
        assert len(new) == min(20, 20 if n_steps is None else n_steps)
        for column in ("loss", "theta_pre", "theta_post", "covered", "size",
                       "lo", "hi", "y", "group"):
            assert _column_bits(getattr(new, column)) == \
                _column_bits(getattr(old, column)), column


class _OddSet:
    """A set whose ``contains`` answers with a preset value of any type and
    whose size is a float32."""

    def __init__(self, answer):
        self.answer = answer

    def contains(self, y):
        return self.answer

    def size(self):
        return np.float32(0.3)


class _OddConstructor:
    """Sets whose cells are numpy scalars, in turn: an interval with float32
    endpoints (its ``contains`` gives an np.bool_), one with float64
    endpoints, and _OddSets that answer 2, 0.5, 0, NaN and np.False_."""

    scored = False

    def __init__(self):
        self.t = 0

    def build(self, x, theta, model):
        self.t += 1
        turn = self.t % 7
        if turn == 0:
            return Interval(np.float32(-0.7), np.float32(0.9))
        if turn == 1:
            return Interval(np.float64(-1.1), np.float64(0.2))
        return _OddSet([2, 0.5, 0, math.nan, np.False_][turn - 2])

    def observe(self, x, y, model):
        pass


class TestRecorderInputs:
    """The loop records numpy scalars and non-bool ``contains`` results
    exactly as the frozen loop's ``np.asarray`` does: np.bool_ and truthy
    values as numpy's truth value, np.int64 groups, float32 and float64
    cells. A group id that is not an integer is a TypeError."""

    N = 23

    def _parts(self, groups, losses):
        n = self.N
        labels = [np.float32(0.25 * (t % 9) - 1.0) if t % 2
                  else np.float64(0.1 * t) for t in range(n)]
        stream = _CountedItems(list(zip([None] * n, labels, groups)))
        model = ConstantModel({0.05: -1.0, 0.95: 1.0})
        spec = _spec(m=-100.0, M=100.0, B=2.0)
        loss = iter(losses)
        return (stream, model, _OddConstructor(),
                (lambda y, s: next(loss),), spec)

    def test_columns_equal_the_frozen_loop(self):
        n = self.N
        groups = [np.int64(t % 4) if t % 3 else t % 4 for t in range(n)]
        losses = [np.float32(0.5 - 0.1 * (t % 3)) if t % 2
                  else np.float64(0.3) for t in range(n)]
        stream, model, constructor, loss_fns, spec = self._parts(groups,
                                                                 losses)
        with mock.patch.object(engine, "_CHUNK", 5):
            new = _run(stream, model, constructor, loss_fns, spec,
                       control_update(spec), None, None)
        stream, model, constructor, loss_fns, spec = self._parts(groups,
                                                                 losses)
        old = _frozen_run(stream, model, constructor, loss_fns, spec,
                          _frozen_control_update(spec), None, None)
        assert len(new) == n
        for column in ("loss", "theta_pre", "theta_post", "covered", "size",
                       "lo", "hi", "y", "group"):
            assert _column_bits(getattr(new, column)) == \
                _column_bits(getattr(old, column)), column
        assert new.covered.dtype == bool and new.group.dtype == np.int64
        # the _OddSets of steps 2-6: 2, 0.5 and NaN are covered, 0 and
        # np.False_ are not
        assert new.covered[1:6].tolist() == [True, True, False, True, False]

    @pytest.mark.parametrize("group", [2.5, np.float64(2.0)])
    def test_a_group_that_is_not_an_integer_raises(self, group):
        groups = [1] * (self.N - 1) + [group]
        parts = self._parts(groups, [0.1] * self.N)
        spec = parts[-1]
        with pytest.raises(TypeError):
            _run(*parts, control_update(spec), None, None)


class TestRunMemory:
    def test_peak_follows_the_finished_trace(self):
        # the finished one-risk trace holds 65 bytes per step; a list per
        # column would hold about 260 at the peak
        n = 100_000
        rng = np.random.default_rng(0)
        labels = rng.standard_normal(n).tolist()
        x = np.zeros(1)

        def stream():
            for y in labels:
                yield x, y

        model = ConstantModel({0.05: -1.6, 0.95: 1.6})
        run_stream(stream(), model, CqrConstructor(), BinaryLossFn(), _spec(),
                   n_steps=1000)  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = run_stream(stream(), model, CqrConstructor(),
                               BinaryLossFn(), _spec(), n_steps=n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(trace) == n
        assert peak / n <= 120, f"{peak / n:.1f} B/step"


class TestExperimentMemory:
    """``run_experiment`` and ``recompute_certificate`` hold one trial's
    trace at a time. For a 3-trial run of n steps per trial, the result
    keeps no trace, the run peaks at one trace (65 B/step) plus the
    export's chunk, and ``recompute_certificate`` holds one trace as one
    copy of its parsed rows. Figures are bytes per step of one trial,
    under ``tracemalloc``; a run that kept every trace read 197, 226 and
    219."""

    N, TRIALS = 20_000, 3

    @pytest.fixture(scope="class")
    def measured(self, tmp_path_factory):
        from riskcal.experiment import recompute_certificate, run_experiment

        tmp = tmp_path_factory.mktemp("experiment_memory")
        cfg = {"schema_version": 1, "seed": 0,
               "stream": {"kind": "synthetic"}, "model": {"kind": "constant"},
               "constructor": {"kind": "cqr"},
               "losses": [{"kind": "binary", "r": 0.1}],
               "stretch": {"kind": "none"},
               "controller": {"kind": "single", "gamma": 0.05, "m": -2.0,
                              "M": 2.0, "B": 1.0}}
        # first-call allocations
        run_experiment({**cfg, "steps": 1000, "trials": 1}, tmp / "warm")
        recompute_certificate(tmp / "warm")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = run_experiment(
                {**cfg, "steps": self.N, "trials": self.TRIALS}, tmp / "run")
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lines = recompute_certificate(tmp / "run")
            verify = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert result.certificate_passed and lines == result.certificate_lines
        return {"kept": (kept - base) / self.N, "peak": (peak - base) / self.N,
                "verify": verify / self.N}

    def test_result_keeps_no_trace(self, measured):
        assert measured["kept"] <= 8, f"{measured['kept']:.1f} B/step"

    def test_run_peaks_at_one_trace(self, measured):
        assert measured["peak"] <= 130, f"{measured['peak']:.1f} B/step"

    def test_verify_peaks_at_one_parsed_trace(self, measured):
        assert measured["verify"] <= 120, f"{measured['verify']:.1f} B/row"


# ---------------------------------------------------------------------------
# The certificate checks as they were before they went one chunk of rows at
# a time: frozen whole-column copies, the oracle of the test below.
# ---------------------------------------------------------------------------

def _frozen_thetas(trace):
    from riskcal.engine import _columns

    return np.concatenate([_columns(trace, "theta_pre"),
                           _columns(trace, "theta_post")])


def _frozen_upper_theta(trace, spec):
    if len(trace) == 0:
        return True, 0.0
    s = spec.risks
    hi = np.asarray(s.M) + 2.0 * np.asarray(s.gamma) * np.asarray(s.B)
    viol = max(float(np.max(_frozen_thetas(trace) - hi)), 0.0)
    return viol <= 1e-9, viol


def _frozen_lower_theta(trace, spec):
    if len(trace) == 0:
        return True, 0.0
    s = spec.risks
    lo = np.asarray(s.m) - 2.0 * np.asarray(s.gamma) * np.asarray(s.B)
    viol = max(float(np.max(lo - _frozen_thetas(trace))), 0.0)
    return viol <= 1e-9, viol


def _frozen_prefix_means(trace, s, bound_fn):
    from riskcal.engine import _columns

    T = np.arange(1, len(trace) + 1, dtype=float)
    means = np.cumsum(_columns(trace, "loss"), axis=0) / T[:, None]
    return means, np.column_stack([bound_fn(s, i, T) for i in range(s.k)])


def _frozen_upper_risk(trace, spec):
    from riskcal.engine import upper_deviation_bound

    if len(trace) == 0:
        return True, 0.0
    s = spec.risks
    means, bounds = _frozen_prefix_means(trace, s, upper_deviation_bound)
    viol = max(float(np.max(means - (np.asarray(s.r) + bounds))), 0.0)
    return viol <= 1e-9, viol


def _frozen_two_sided_risk(trace, spec):
    if len(trace) == 0:
        return True, 0.0
    s = spec.risks
    means, bounds = _frozen_prefix_means(trace, s, two_sided_deviation_bound)
    viol = max(float(np.max(np.abs(means - np.asarray(s.r)) - bounds)), 0.0)
    return viol <= 1e-9, viol


def _frozen_recursion(trace, update):
    from riskcal.engine import _columns

    pre = _columns(trace, "theta_pre")
    n = len(pre)
    if n == 0:
        return True, 0.0
    post = _columns(trace, "theta_post")
    t = np.arange(n)
    expected = np.column_stack([
        step(t, th, loss)
        for step, th, loss in zip(update, pre.T, _columns(trace, "loss").T)])
    viol = float(np.max(np.abs(expected - post)))
    if n > 1:
        viol = max(viol, float(np.max(np.abs(post[:-1] - pre[1:]))))
    return viol <= 1e-9, viol


_CHECK_CELLS = st.floats(-3.0, 3.0) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0])


@st.composite
def _checked_traces(draw):
    """A spec and a trace of 1-20 rows whose cells are drawn (NaN and
    infinities included), with theta_post chained into the next theta_pre
    or drawn on its own."""
    n = draw(st.integers(1, 20))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    width = 1 if k is None else k
    if k is None:
        spec = RiskSpec(r=0.1, gamma=0.5, m=-1.0, M=1.0, B=1.0)
    else:
        spec = MultiRiskSpec(r=(0.1, 0.5, -0.2)[:k], gamma=0.5, m=-1.0,
                             M=1.0, B=(1.0, 2.0, 1.0)[:k],
                             two_sided=draw(st.booleans()))

    def column(rows):
        return np.array(draw(st.lists(_CHECK_CELLS, min_size=rows * width,
                                      max_size=rows * width)),
                        dtype=float).reshape(rows, width)

    loss = column(n)
    pre = column(n)
    post = (np.concatenate([pre[1:], column(1)]) if draw(st.booleans())
            else column(n))
    if k is None:
        loss, pre, post = loss[:, 0], pre[:, 0], post[:, 0]
    trace = StreamTrace(loss=loss, theta_pre=pre, theta_post=post,
                        covered=np.ones(n, dtype=bool), size=np.zeros(n),
                        lo=np.zeros(n), hi=np.zeros(n), y=np.zeros(n),
                        group=np.full(n, -1))
    return spec, trace


class TestChunkedChecksSameBits:
    """The checks go one chunk of rows at a time, carrying the running loss
    sum; every verdict and violation equals the whole-column checks', bit
    for bit, and a NaN stays a NaN."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(drawn=_checked_traces(), chunk=st.sampled_from([1, 2, 3, 5, 4096]))
    def test_every_check_equals_the_frozen_one(self, drawn, chunk):
        spec, trace = drawn
        pairs = [(check_upper_theta_bound, _frozen_upper_theta),
                 (check_lower_theta_bound, _frozen_lower_theta),
                 (check_upper_risk_bound, _frozen_upper_risk),
                 (check_two_sided_risk_bound, _frozen_two_sided_risk)]
        update = control_update(spec)
        with mock.patch.object(engine, "_CHUNK", chunk), \
                np.errstate(invalid="ignore"):
            got = [check(trace, spec) for check, _ in pairs]
            got.append(check_recursion(trace, update))
            want = [frozen(trace, spec) for _, frozen in pairs]
            want.append(_frozen_recursion(trace, update))
        # a NaN's sign bit depends on numpy's reduction kernel, and no
        # output shows it: the certificate prints "nan" either way
        assert [(ok, "nan" if v != v else np.float64(v).tobytes())
                for ok, v in got] == \
            [(ok, "nan" if v != v else np.float64(v).tobytes())
             for ok, v in want]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_a_break_in_the_chain_is_seen_at_every_row(self, chunk):
        # shifting every theta from row b on keeps each step's recursion and
        # breaks the chain between rows b - 1 and b only, which may fall on
        # a chunk boundary
        spec = _spec()
        update = control_update(spec)
        trace = run_stream(_iid_stream(2, 12), ConstantModel(
            {0.05: 2, 0.95: 4}), CqrConstructor(), BinaryLossFn(), spec)
        for b in range(1, len(trace)):
            pre, post = trace.theta_pre.copy(), trace.theta_post.copy()
            pre[b:] += 0.25
            post[b:] += 0.25
            shifted = dataclasses.replace(trace, theta_pre=pre,
                                          theta_post=post)
            with mock.patch.object(engine, "_CHUNK", chunk):
                ok, viol = check_recursion(shifted, update)
            assert (ok, viol) == _frozen_recursion(shifted, update)
            assert not ok and viol == pytest.approx(0.25), b


def _frozen_both(*results):
    """A one-risk run's theta line as it was read from the two checks: all
    must hold; the worst violation by Python's max."""
    return all(ok for ok, _ in results), max(viol for _, viol in results)


class TestOneThetaLineSameBits:
    """A one-risk run's theta line walks both sides in one check; its
    verdict and violation equal the two whole-column checks' combined as
    they were, bit for bit and with the sign of zero: a NaN on the upper
    side shows, one on the lower side alone leaves the violation
    finite."""

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(drawn=_checked_traces(), chunk=st.sampled_from([1, 2, 3, 4096]))
    def test_both_sides_equal_the_frozen_pair(self, drawn, chunk):
        spec, trace = drawn
        with mock.patch.object(engine, "_CHUNK", chunk), \
                np.errstate(invalid="ignore"):
            ok, viol = engine._walk(trace, spec).theta
            want_ok, want = _frozen_both(_frozen_upper_theta(trace, spec),
                                         _frozen_lower_theta(trace, spec))
        assert ok == want_ok
        assert (viol != viol) == (want != want)
        if viol == viol:
            assert np.float64(viol).tobytes() == np.float64(want).tobytes()

    def test_a_nan_below_alone_fails_with_a_finite_violation(self):
        # m = -inf makes the lower line -inf; a theta of -inf is NaN below
        # it and -inf under the upper line
        spec = MultiRiskSpec(r=(0.1,), gamma=0.5, m=-math.inf, M=1.0,
                             B=1.0, two_sided=True)
        col = np.array([[0.0], [-math.inf]])
        trace = StreamTrace(loss=np.zeros((2, 1)), theta_pre=col,
                            theta_post=col, covered=np.ones(2, dtype=bool),
                            size=np.zeros(2), lo=np.zeros(2), hi=np.zeros(2),
                            y=np.zeros(2), group=np.full(2, -1))
        with np.errstate(invalid="ignore"):
            assert engine._walk(trace, spec).theta == (False, 0.0)
