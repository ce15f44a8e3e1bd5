import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from riskcal.losses import (BinaryLossFn, CenterFailureFn, ImageMiscoverageFn,
                            McLossFn, default_center_region)
from riskcal.sets import EMPTY_SET, FULL_SPACE, Interval, IntervalGrid


def _grid(lo, hi):
    return IntervalGrid(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


class TestBinaryLoss:
    def test_inside(self):
        assert BinaryLossFn()(3.0, Interval(2.0, 4.0)) == 0.0

    def test_empty_set_always_misses(self):
        assert BinaryLossFn()(3.0, EMPTY_SET) == 1.0

    def test_outside(self):
        assert BinaryLossFn()(5.0, Interval(2.0, 4.0)) == 1.0

    def test_full_space_always_covers(self):
        assert BinaryLossFn()(1e12, FULL_SPACE) == 0.0


class TestMcLoss:
    def _run(self, flags, cap=50):
        # no run below reaches the default cap unless a test sets one
        fn = McLossFn(cap)
        return [fn(0.0, FULL_SPACE if covered else EMPTY_SET)
                for covered in flags]

    def test_recursion(self):
        assert self._run([1, 0, 0, 1]) == [0.0, 1.0, 2.0, 0.0]

    def test_all_covered(self):
        assert self._run([1] * 6) == [0.0] * 6

    def test_cap_engages(self):
        assert self._run([0, 0, 0], cap=2) == [1.0, 2.0, 2.0]

    def test_reset_after_cap(self):
        assert self._run([0, 0, 0, 1, 0], cap=2) == [1.0, 2.0, 2.0, 0.0, 1.0]


    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, 0, 0.5])
    def test_cap_must_be_finite_and_at_least_one(self, cap):
        # a NaN cap made the bound NaN, so the first miss failed the run's
        # bound check; an infinite one declared no bound at all
        with pytest.raises(ValueError, match=f"cap must be finite and >= 1, "
                                             f"got {cap}"):
            McLossFn(cap)


class _FrozenMcLoss:
    """``McLossFn.__call__`` as it was: the run advanced in place, then
    ``float(min(run, cap))``."""

    def __init__(self, cap):
        self.cap = cap
        self._run = 0

    def __call__(self, y, prediction_set):
        if prediction_set.contains(y):
            self._run = 0
            return 0.0
        self._run += 1
        return float(min(self._run, self.cap))


class TestMcLossSameBits:
    """The counter's loss takes min's rule inline; every value equals the
    frozen call's, for integer and fractional caps."""

    @given(cap=st.integers(1, 6) | st.sampled_from([1.0, 2.5, 3.0, 1e300]),
           flags=st.lists(st.booleans(), max_size=40))
    @example(cap=2.5, flags=[False, False, False, True, False])
    def test_values_equal_the_frozen_call(self, cap, flags):
        fn, frozen = McLossFn(cap), _FrozenMcLoss(cap)
        for covered in flags:
            s = FULL_SPACE if covered else EMPTY_SET
            got, want = fn(0.0, s), frozen(0.0, s)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestImageMiscoverage:
    def test_quarter(self):
        g = _grid(np.zeros((2, 2)), np.ones((2, 2)))
        y = np.array([[0.5, 0.5], [0.5, 2.0]])
        assert ImageMiscoverageFn()(y, g) == 0.25

    def test_all_inside(self):
        g = _grid(np.zeros((2, 2)), np.ones((2, 2)))
        assert ImageMiscoverageFn()(np.full((2, 2), 0.5), g) == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            lo = rng.normal(size=(8, 8))
            hi = lo + rng.uniform(0, 2, size=(8, 8))
            y = rng.normal(size=(8, 8))
            mask = rng.uniform(size=(8, 8)) < 0.8
            if not mask.any():
                mask[0, 0] = True
            miss = 0
            valid = 0
            for i in range(8):
                for j in range(8):
                    if not mask[i, j]:
                        continue
                    valid += 1
                    if not (lo[i, j] <= y[i, j] <= hi[i, j]):
                        miss += 1
            expected = miss / valid
            got = ImageMiscoverageFn(mask)(y, _grid(lo, hi))
            assert got == pytest.approx(expected)

    def test_zero_valid_pixels(self):
        with pytest.raises(ValueError, match="no valid pixels"):
            ImageMiscoverageFn(mask=np.zeros((2, 2), bool))

    def test_one_pixel_grid_equals_binary(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lo = rng.normal()
            hi = lo + rng.uniform(0, 2)
            y = rng.normal()
            got = ImageMiscoverageFn()(np.array([[y]]), _grid([[lo]], [[hi]]))
            assert got == BinaryLossFn()(y, Interval(lo, hi))

    def test_sentinels(self):
        y = np.zeros((2, 2))
        assert ImageMiscoverageFn()(y, EMPTY_SET) == 1.0
        assert ImageMiscoverageFn()(y, FULL_SPACE) == 0.0


class TestCenterFailure:
    def _grid_with_center_coverage(self, frac):
        # 10x10 grid, center region is the middle 5x5 block (25 pixels)
        lo = np.full((10, 10), 10.0)  # nothing covered by default
        hi = np.full((10, 10), 11.0)
        r0, r1, c0, c1 = default_center_region((10, 10))
        n_cover = round(frac * (r1 - r0) * (c1 - c0))
        flat = [(i, j) for i in range(r0, r1) for j in range(c0, c1)]
        for (i, j) in flat[:n_cover]:
            lo[i, j], hi[i, j] = -1.0, 1.0
        return _grid(lo, hi)

    def test_fires_below_threshold(self):
        g = self._grid_with_center_coverage(0.56)  # 14/25 = 56%
        assert CenterFailureFn()(np.zeros((10, 10)), g) == 1.0

    def test_full_coverage_passes(self):
        g = self._grid_with_center_coverage(1.0)
        assert CenterFailureFn()(np.zeros((10, 10)), g) == 0.0

    def test_exactly_at_threshold_fires(self):
        # 15/25 = 60% exactly; the indicator uses <=
        g = self._grid_with_center_coverage(0.6)
        assert CenterFailureFn()(np.zeros((10, 10)), g) == 1.0

    def test_empty_region_rejected(self):
        g = self._grid_with_center_coverage(1.0)
        with pytest.raises(ValueError):
            CenterFailureFn(region=(5, 5, 0, 5))(np.zeros((10, 10)), g)

    def test_mask_must_match_the_grid(self):
        # a larger mask would slice to the region's shape and pass unnoticed
        with pytest.raises(ValueError, match="mask shape"):
            CenterFailureFn(mask=np.ones((20, 20), bool))(
                np.zeros((10, 10)), FULL_SPACE)

    def test_mask_without_valid_center_pixels_rejected_on_any_set(self):
        mask = np.ones((10, 10), bool)
        mask[2:8, 2:8] = False  # covers the default region, rows and cols 2-6
        for s in (EMPTY_SET, FULL_SPACE):
            with pytest.raises(ValueError, match="no valid pixels"):
                CenterFailureFn(mask=mask)(np.zeros((10, 10)), s)

    def test_default_region_middle_half(self):
        assert default_center_region((16, 16)) == (4, 12, 4, 12)
        # one dimension below 50: fall back to the middle half of each
        r0, r1, c0, c1 = default_center_region((100, 40))
        assert (r1 - r0, c1 - c0) == (50, 20)
        assert (r0, c0) == (25, 10)

    def test_default_region_50x50_when_large(self):
        assert default_center_region((200, 200)) == (75, 125, 75, 125)

    def test_sentinels(self):
        y = np.zeros((10, 10))
        assert CenterFailureFn()(y, EMPTY_SET) == 1.0
        assert CenterFailureFn()(y, FULL_SPACE) == 0.0


class TestLossContract:
    """L(y, full) < r and L(y, empty) > r for every target the runner accepts."""

    @pytest.mark.parametrize("fn", [BinaryLossFn(), McLossFn(cap=50),
                                    ImageMiscoverageFn(), CenterFailureFn()])
    def test_contract(self, fn):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = rng.normal() if not isinstance(
                fn, (ImageMiscoverageFn, CenterFailureFn)) \
                else rng.normal(size=(10, 10))
            # a fresh copy per call: the MC counter starts from an empty run
            assert copy.deepcopy(fn)(y, FULL_SPACE) <= fn.full_space_loss
            assert copy.deepcopy(fn)(y, EMPTY_SET) >= fn.empty_set_loss_min
        for r in rng.uniform(0.01, 0.99, size=20):
            assert fn.full_space_loss < r < fn.empty_set_loss_min

    def test_values_stay_in_declared_bound(self):
        rng = np.random.default_rng(5)
        fn = McLossFn(cap=3)
        for _ in range(100):
            s = FULL_SPACE if rng.uniform() < 0.3 else EMPTY_SET
            assert -fn.bound <= fn(0.0, s) <= fn.bound


class TestBinaryDominatedByMc:
    def test_pointwise_domination(self):
        # proposition restated: 1{miss} <= MC_t step by step, any sequence
        rng = np.random.default_rng(11)
        flags = rng.uniform(size=1000) < 0.8
        mc = McLossFn(cap=len(flags))  # no run can reach the cap
        for covered in flags:
            s = FULL_SPACE if covered else EMPTY_SET
            assert BinaryLossFn()(0.0, s) <= mc(0.0, s)
