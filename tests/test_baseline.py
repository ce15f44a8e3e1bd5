import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcal.baseline import (WindowQuantileConstructor, aci_update,
                              empirical_quantile, run_aci_stream)
from riskcal.engine import check_recursion
from riskcal.losses import BinaryLossFn
from riskcal.models import ConstantModel, LinearPinballModel
from riskcal.sets import FULL_SPACE, Interval, cqr_interval, cqr_score
from riskcal.streams import (KnownQuantileConfig, KnownQuantileStream,
                             SyntheticConfig, synthetic_stream,
                             standardize_stream)


class TestEmpiricalQuantile:
    def test_direct_count(self):
        w = deque([1.0, 2.0, 3.0, 4.0], maxlen=10)
        # ceil(0.5 * 5) = 3rd smallest
        assert empirical_quantile(w, 0.5) == 3.0

    def test_overflow_sentinel(self):
        w = deque([1.0, 2.0, 3.0, 4.0], maxlen=10)
        # level * (n+1) > n -> full-space behavior
        assert math.isinf(empirical_quantile(w, 0.9))

    def test_low_level_clips_to_smallest(self):
        assert empirical_quantile([5.0, 1.0, 3.0], -0.5) == 1.0

    def test_largest_flag_literal_reading(self):
        scores = [1.0, 2.0, 3.0, 4.0]
        # k = ceil(0.5*5) = 3: 3rd smallest is 3, 3rd largest is 2
        assert empirical_quantile(scores, 0.5, largest=False) == 3.0
        assert empirical_quantile(scores, 0.5, largest=True) == 2.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantile(deque(maxlen=5), 0.5)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            scores = rng.normal(size=n).tolist()
            level = float(rng.uniform(0, 1))
            k = math.ceil(level * (n + 1))
            if k > n:
                expected = math.inf
            else:
                expected = sorted(scores)[max(k, 1) - 1]
            assert empirical_quantile(scores, level) == expected


class TestQuantileWindow:
    """The constructor's window of recent scores."""

    def test_strict_oldest_first_eviction(self):
        model = ConstantModel({0.05: -1.0, 0.95: 1.0})
        ctor = WindowQuantileConstructor(window_size=3, warmup=1)
        for y in (1.0, 2.0, 3.0, 4.0, 5.0):
            ctor.build(None, 0.1, model)
            ctor.observe(None, y, model)
        # each score is y - 1 against the constant [-1, 1] interval
        assert list(ctor.window) == [2.0, 3.0, 4.0]
        assert len(ctor.window) == 3

    def test_window_size_must_be_positive(self):
        with pytest.raises(ValueError, match="window_size"):
            WindowQuantileConstructor(window_size=0)

    def test_warmup_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="warmup"):
            WindowQuantileConstructor(warmup=-1)

    def test_window_content_is_last_n_scores(self):
        # replay-verified: after T steps the window holds the scores of
        # steps T-n .. T-1 exactly
        rng = np.random.default_rng(1)
        model = ConstantModel({0.05: -1.0, 0.95: 1.0})
        n = 20
        ctor = WindowQuantileConstructor(window_size=n, warmup=1)
        expected_scores = []
        for t in range(100):
            x, y = None, float(rng.normal())
            ctor.build(x, 0.1, model)
            ctor.observe(x, y, model)
            expected_scores.append(cqr_score(-1.0, 1.0, y))
        assert list(ctor.window) == expected_scores[-n:]


def _observe_score(ctor, v, alpha_t=0.1):
    """One build-and-observe step of ``ctor`` whose score is exactly ``v``:
    against the crossed quantiles (v, -v) the label 0 scores
    max(v - 0, 0 - (-v)) = v. Returns the announced set."""
    model = ConstantModel({0.05: v, 0.95: -v})
    pred_set = ctor.build(None, alpha_t, model)
    ctor.observe(None, 0.0, model)
    return pred_set


def _aci_step(ctor, alpha_t, y, model, gamma=0.05, alpha=0.1):
    """One baseline step through the constructor and update the loop runs:
    (announced set, new alpha_t, err)."""
    pred_set = ctor.build(None, alpha_t, model)
    err = BinaryLossFn()(y, pred_set)
    ctor.observe(None, y, model)
    (step,) = aci_update(gamma, alpha, warmup=0)
    new_alpha = step(0, alpha_t, err)
    return pred_set, new_alpha, err


# a small pool, so windows hold ties, and both zeros
_SCORES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])


class TestSortedWindow:
    """The constructor reads its quantile from a sorted copy of the window;
    it must announce what ``empirical_quantile`` of the window gives."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(n=st.integers(1, 8), largest=st.booleans(), data=st.data())
    def test_announced_set_matches_empirical_quantile(self, n, largest,
                                                      data):
        ctor = WindowQuantileConstructor(window_size=n, warmup=0,
                                         largest=largest)
        # alpha_t outside [0, 1] and near its ends clips the rank below 1
        # and lifts it above n
        alphas = st.floats(-0.5, 1.5) | st.sampled_from(
            [0.0, 1.0, 1.0 / (n + 1), 1.0 - 1.0 / (n + 1)])
        for _ in range(data.draw(st.integers(1, 3 * n + 3))):
            v, alpha_t = data.draw(_SCORES), data.draw(alphas)
            window = list(ctor.window)
            got = _observe_score(ctor, v, alpha_t)
            q = (empirical_quantile(window, 1.0 - alpha_t, largest)
                 if window else math.inf)
            if math.isinf(q):
                assert got is FULL_SPACE
            else:
                assert got == cqr_interval(v, -v, q)
            assert sorted(ctor.window) == ctor._sorted

    def test_nan_score_is_rejected(self):
        model = ConstantModel({0.05: -1.0, 0.95: 1.0})
        ctor = WindowQuantileConstructor(window_size=3, warmup=0)
        _observe_score(ctor, 0.5)
        ctor.build(None, 0.1, model)
        with pytest.raises(ValueError, match="NaN conformity score"):
            ctor.observe(None, math.nan, model)
        assert list(ctor.window) == [0.5]


class TestAciStep:
    def setup_method(self):
        self.model = ConstantModel({0.05: -1.0, 0.95: 1.0})

    def _ctor(self, scores, capacity):
        ctor = WindowQuantileConstructor(window_size=capacity, warmup=0)
        for v in scores:
            _observe_score(ctor, v)
        return ctor

    def test_error_at_alpha_is_fixed_point(self):
        # err_t can only be 0 or 1; the fixed point shows in expectation,
        # so check the update arithmetic directly at both branches
        ctor = self._ctor([0.5], 5)
        _, alpha_1, err = _aci_step(ctor, 0.1, 0.0, self.model)
        assert err == 0.0
        assert alpha_1 == pytest.approx(0.1 + 0.05 * (0.1 - 0.0))

    def test_miss_update_value(self):
        ctor = self._ctor([0.5] * 50, 50)
        _, alpha_1, err = _aci_step(ctor, 0.1, 5.0, self.model)
        assert err == 1.0
        assert alpha_1 == pytest.approx(0.055)

    def test_set_is_interval_matching_cqr_adjustment(self):
        rng = np.random.default_rng(2)
        ctor = self._ctor(rng.normal(size=50).tolist(), 50)
        alpha_t = 0.1
        for _ in range(100):
            y = float(rng.normal() * 3)
            q = empirical_quantile(ctor.window, 1.0 - alpha_t)
            expected = FULL_SPACE if math.isinf(q) else cqr_interval(-1.0, 1.0, q)
            got, alpha_t, _ = _aci_step(ctor, alpha_t, y, self.model)
            if expected is FULL_SPACE:
                assert got is FULL_SPACE
            else:
                assert isinstance(got, Interval)
                assert got == expected


class TestRunAciStream:
    def test_warmup_announces_full_space_and_freezes_alpha(self):
        kq = KnownQuantileStream(KnownQuantileConfig(seed=3))
        trace = run_aci_stream(kq.generate(50), kq.oracle_model(), gamma=0.05,
                               alpha=0.1, window_size=10, warmup=10)
        assert np.all(np.isinf(trace.hi[:10]))
        assert np.all(trace.theta_pre[:10] == 0.1)
        assert np.all(trace.theta_post[:10] == 0.1)

    def test_long_run_coverage_on_synthetic(self):
        stream = standardize_stream(
            synthetic_stream(SyntheticConfig(seed=4), 12000), 3000)
        model = LinearPinballModel(5, (0.05, 0.95), lr=0.1)
        trace = run_aci_stream(stream, model, gamma=0.05, alpha=0.1,
                               window_size=500)
        # C/T-style tolerance: the alpha recursion bounds the error by
        # (alpha range)/(gamma*T); use a generous deterministic envelope
        cov = trace.covered[10:].mean()
        assert abs(cov - 0.9) <= (1 + 4 * 0.05) / (0.05 * 11990) + 0.02

    def test_exchangeable_split_conformal_coverage(self):
        kq = KnownQuantileStream(KnownQuantileConfig(seed=5))
        trace = run_aci_stream(kq.generate(20000), kq.oracle_model(),
                               gamma=0.05, alpha=0.1, window_size=500)
        assert trace.covered[10:].mean() == pytest.approx(0.9, abs=0.02)

    def test_recursion_replays_the_warmup_freeze(self):
        kq = KnownQuantileStream(KnownQuantileConfig(seed=6))
        trace = run_aci_stream(kq.generate(200), kq.oracle_model(),
                               gamma=0.05, alpha=0.1, window_size=50,
                               warmup=10)
        update = aci_update(0.05, 0.1, 10)
        assert check_recursion(trace, update) == (True, 0.0)
        # the same trace does not follow an update without the freeze
        assert not check_recursion(trace, aci_update(0.05, 0.1, 0))[0]
