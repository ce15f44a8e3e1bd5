import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskcal.metrics import (_levels, _partitioned_quantile, coverage,
                             delta_coverage, evaluate, mc_risk,
                             miscoverage_streaks, msl)


class TestMsl:
    def test_hand_case_one(self):
        # two streaks of lengths 1 and 2 -> (2 + 1) / 2
        seq = [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1]
        assert msl(seq) == 1.5

    def test_hand_case_two(self):
        # single trailing streak of length 3, truncated by the sequence end
        seq = [1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0]
        assert msl(seq) == 3.0

    def test_all_covered_gives_nan_marker(self):
        assert math.isnan(msl([1, 1, 1, 1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            msl([])

    def test_streak_lengths_sum_to_miss_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            seq = rng.uniform(size=200) < rng.uniform(0.3, 0.99)
            assert sum(miscoverage_streaks(seq)) == int((~seq).sum())

    def test_at_least_one_when_any_streak(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            seq = rng.uniform(size=100) < 0.8
            if (~seq).any():
                assert msl(seq) >= 1.0

    def test_ideal_iid_value(self):
        # geometric streaks: expected length 1/(1-alpha) at alpha=0.1
        rng = np.random.default_rng(2)
        seq = rng.uniform(size=100_000) < 0.9
        assert msl(seq) == pytest.approx(1.0 / 0.9, abs=0.05)


class TestMcRisk:
    def test_recursion_mean(self):
        assert mc_risk([1, 0, 0, 1]) == pytest.approx(0.75)

    def test_all_covered(self):
        assert mc_risk([1, 1, 1]) == 0.0

    def test_ideal_iid_value(self):
        # i.i.d. Bernoulli(0.9) coverage: mean counter -> alpha/(1-alpha)
        rng = np.random.default_rng(3)
        seq = rng.uniform(size=100_000) < 0.9
        assert mc_risk(seq) == pytest.approx(1.0 / 9.0, abs=0.01)

    def test_dominates_miscoverage_rate(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            seq = rng.uniform(size=300) < rng.uniform(0.5, 1.0)
            assert mc_risk(seq) >= (1.0 - coverage(seq)) - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc_risk([])

    def test_equals_the_counter_loop(self):
        # the run lengths and the closed form per run, against the scans
        # they replace, bit for bit
        def streaks_loop(seq):
            streaks, run = [], 0
            for flag in seq:
                if flag and run:
                    streaks.append(run)
                run = 0 if flag else run + 1
            return streaks + [run] if run else streaks

        def mc_loop(seq):
            total, counter = 0.0, 0
            for flag in seq:
                counter = 0 if flag else counter + 1
                total += 0 if flag else counter
            return total / len(seq)

        rng = np.random.default_rng(6)
        for _ in range(300):
            seq = rng.uniform(size=rng.integers(1, 200)) < rng.uniform(0, 1)
            assert miscoverage_streaks(seq) == streaks_loop(seq)
            assert mc_risk(seq) == mc_loop(seq)


class TestDeltaCoverage:
    def test_exact_groups_zero(self):
        covered = [1, 0] * 45  # 90% per group would be needed; build exactly
        covered = [1] * 9 + [0] + [1] * 9 + [0]
        groups = [0] * 10 + [1] * 10
        assert delta_coverage(covered, groups, alpha=0.1) == 0.0

    def test_single_group(self):
        covered = [1] * 8 + [0] * 2
        assert delta_coverage(covered, [3] * 10, alpha=0.1) == pytest.approx(0.1)

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = 700
            covered = rng.uniform(size=n) < 0.85
            groups = rng.integers(0, 7, size=n)
            expected = np.mean([
                abs(covered[groups == g].mean() - 0.9)
                for g in sorted(set(groups.tolist()))])
            got = delta_coverage(covered, groups, alpha=0.1)
            assert got == pytest.approx(expected)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            delta_coverage([1, 0], [1], 0.1)

    def test_nan_labels_are_one_group(self):
        covered = [1, 1, 0, 1, 0, 1]
        groups = [np.nan, 2.0, np.nan, 2.0, np.nan, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = delta_coverage(covered, groups, alpha=0.1)
        # the NaN group covers 1/3, the other 3/3: deviations 0.9 - 1/3, 0.1
        assert got == pytest.approx(((0.9 - 1 / 3) + 0.1) / 2)


class TestEvaluate:
    def _trace(self, n=100):
        from riskcal.engine import StreamTrace
        rng = np.random.default_rng(6)
        covered = rng.uniform(size=n) < 0.9
        return StreamTrace(
            loss=(~covered).astype(float),
            theta_pre=np.zeros(n), theta_post=np.zeros(n),
            covered=covered, size=rng.uniform(1, 3, size=n),
            lo=np.zeros(n), hi=np.ones(n), y=np.zeros(n),
            group=rng.integers(0, 7, size=n),
        )

    def test_window_selects_steps(self):
        trace = self._trace(100)
        rep = evaluate(trace, window=(51, 100), alpha=0.1)
        assert rep.n_steps == 50
        assert rep.coverage == pytest.approx(trace.covered[50:].mean())

    def test_window_validation(self):
        with pytest.raises(ValueError):
            evaluate(self._trace(10), window=(0, 5))
        with pytest.raises(ValueError):
            evaluate(self._trace(10), window=(5, 11))

    def test_report_dict_scales_delta_coverage(self):
        rep = evaluate(self._trace(100), alpha=0.1).to_dict()
        assert rep["delta_coverage_scaled"] == pytest.approx(
            rep["delta_coverage"] * 100.0)

    def test_nan_msl_not_zero_when_no_streaks(self):
        trace = self._trace(50)
        trace.covered[:] = True
        trace.loss[:] = 0.0
        rep = evaluate(trace)
        assert math.isnan(rep.msl)

    def test_infinite_sizes_excluded_from_lengths(self):
        trace = self._trace(50)
        trace.size[0] = math.inf
        rep = evaluate(trace)
        assert math.isfinite(rep.mean_length)


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


class TestSameBitsWithoutNumpyMa:
    """``_levels`` and ``_partitioned_quantile`` stand in for ``np.unique``
    and ``np.quantile`` (which load numpy.ma) and must give their bits."""

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(g=hnp.arrays(np.int64, st.integers(0, 40),
                        elements=st.integers(-5, 5)))
    def test_levels_are_np_unique_of_integer_labels(self, g):
        got, expected = _levels(g), np.unique(g)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_delta_coverage_equals_the_np_unique_formula(self, data):
        n = data.draw(st.integers(1, 40))
        c = data.draw(hnp.arrays(bool, n))
        g = data.draw(hnp.arrays(
            np.float64, n, elements=st.sampled_from(
                [0.0, -0.0, 1.0, 2.5, -3.0, math.inf, -math.inf,
                 math.nan])))
        target = 1.0 - 0.1
        with warnings.catch_warnings():
            # every level selects a step, the NaN level (one) included
            warnings.simplefilter("error", RuntimeWarning)
            devs = [abs(float(c[np.isnan(g) if np.isnan(v) else g == v]
                              .mean()) - target)
                    for v in np.unique(g)]
            expected = float(np.mean(devs))
            got = delta_coverage(c, g, 0.1)
        assert _bits(got) == _bits(expected)
        assert not math.isnan(got)
        assert np.array_equal(_levels(g), np.unique(g), equal_nan=True)

    @settings(max_examples=600, deadline=None, database=None,
              derandomize=True)
    @given(values=hnp.arrays(np.float64, st.integers(1, 40),
                             elements=st.floats(allow_nan=True,
                                                allow_infinity=True)),
           q=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0, 1))
    def test_quantile_is_np_quantile(self, values, q):
        before = values.copy()
        with np.errstate(all="ignore"):
            expected = np.quantile(values, q)
            got = _partitioned_quantile(values.copy(), q)
        assert _bits(got) == _bits(expected)
        assert before.tobytes() == values.tobytes()  # the input is not moved

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(sizes=hnp.arrays(np.float64, st.integers(1, 40),
                            elements=st.sampled_from(
                                [0.0, -0.0, 0.5, 1.0, 2.5, 1e-300,
                                 math.inf, -math.inf, math.nan])
                            | st.floats(0, 10)))
    def test_evaluate_length_statistics_are_numpys(self, sizes):
        # each level partitions its own copy of the finite sizes, so a
        # +0.0 and a -0.0 land where np.quantile puts them
        from riskcal.engine import StreamTrace

        n = len(sizes)
        trace = StreamTrace(
            loss=np.zeros(n), theta_pre=np.zeros(n), theta_post=np.zeros(n),
            covered=np.ones(n, dtype=bool), size=sizes, lo=sizes, hi=sizes,
            y=sizes, group=np.full(n, -1))
        before = sizes.copy()
        rep = evaluate(trace)
        finite = before[np.isfinite(before)]
        if finite.size:
            assert _bits(rep.mean_length) == _bits(finite.mean())
            assert {q: _bits(v) for q, v in rep.length_quantiles.items()} == \
                {q: _bits(np.quantile(finite, q)) for q in (0.1, 0.5, 0.9)}
        assert before.tobytes() == sizes.tobytes()

    def test_quantile_takes_the_upper_branch_at_one_half(self):
        # at weight exactly 0.5 the two interpolation branches round apart
        # here; numpy takes b - (b - a) * (1 - t)
        values = np.array([0.9053558666731177, -1.303157231604361])
        assert _partitioned_quantile(values.copy(), 0.5) == \
            -0.19890068246562154
        assert _bits(_partitioned_quantile(values.copy(), 0.5)) == \
            _bits(np.quantile(values, 0.5))
