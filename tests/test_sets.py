import math

import numpy as np
import pytest

from riskcal.models import ConstantModel, OracleModel
from riskcal.sets import (EMPTY_SET, FULL_SPACE, ConstantHeuristic,
                          CqrConstructor, Interval, IntervalGrid,
                          PreviousResidualsHeuristic, cqr_interval, cqr_score,
                          image_interval, quantile_scale_interval)


class TestCqrInterval:
    def test_zero_adjustment(self):
        s = cqr_interval(2.0, 5.0, 0.0)
        assert s == Interval(2.0, 5.0)

    def test_widening(self):
        s = cqr_interval(2.0, 5.0, 1.5)
        assert s == Interval(0.5, 6.5)

    def test_inversion_normalizes_to_empty(self):
        # width would be -1 after shrinking by 2 on each side
        assert cqr_interval(2.0, 5.0, -2.0) is EMPTY_SET

    def test_degenerate_point_is_kept(self):
        s = cqr_interval(2.0, 5.0, -1.5)
        assert s == Interval(3.5, 3.5)
        assert s.contains(3.5)

    @pytest.mark.parametrize("args", [(math.nan, 5, 0), (2, math.inf, 0),
                                      (2, 5, math.nan)])
    def test_rejects_non_finite(self, args):
        with pytest.raises(ValueError):
            cqr_interval(*args)

    def test_monotone_in_adjustment(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q_lo, q_hi = sorted(rng.normal(size=2))
            a1, a2 = sorted(rng.normal(size=2))
            s1 = cqr_interval(q_lo, q_hi, a1)
            s2 = cqr_interval(q_lo, q_hi, a2)
            if s1 is EMPTY_SET:
                continue
            assert s2.lo <= s1.lo and s1.hi <= s2.hi


class TestCqrScore:
    def test_inside_is_negative_distance(self):
        assert cqr_score(2.0, 5.0, 3.0) == -1.0

    def test_above(self):
        assert cqr_score(2.0, 5.0, 7.0) == 2.0

    def test_below(self):
        assert cqr_score(2.0, 5.0, 0.0) == 2.0


class TestQuantileScale:
    def setup_method(self):
        self.model = OracleModel(lambda x: 0.0, lambda x: 1.0)

    def test_nominal_level(self):
        s = quantile_scale_interval(self.model, None, -0.1)
        assert s.lo == pytest.approx(self.model.predict(None, 0.05))
        assert s.hi == pytest.approx(self.model.predict(None, 0.95))

    def test_tau_to_zero_approaches_full_space(self):
        s = quantile_scale_interval(self.model, None, -1e-15)
        assert s.size() > 10.0  # far out in the Gaussian tails

    def test_theta_minus_one_gives_point(self):
        s = quantile_scale_interval(self.model, None, -1.0)
        assert s.lo == pytest.approx(s.hi)
        assert s.lo == pytest.approx(self.model.predict(None, 0.5))


class TestImageInterval:
    def test_zero_lambda_degenerate(self):
        pred = np.arange(4.0).reshape(2, 2)
        g = image_interval(pred, np.ones((2, 2)), np.ones((2, 2)), 0.0)
        assert np.array_equal(g.lo, pred) and np.array_equal(g.hi, pred)

    def test_constant_heuristic_symmetric(self):
        pred = np.zeros((3, 3))
        l_map, u_map = ConstantHeuristic().maps((3, 3))
        g = image_interval(pred, l_map, u_map, 2.0)
        assert np.all(g.lo == -2.0) and np.all(g.hi == 2.0)

    def test_negative_lambda_inverts_pixels(self):
        pred = np.zeros((2, 2))
        g = image_interval(pred, np.ones((2, 2)), np.ones((2, 2)), -1.0)
        assert not g.pixel_covered(pred).any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            image_interval(np.zeros((2, 2)), np.ones((2, 3)), np.ones((2, 2)), 1.0)

    def test_rejects_negative_maps(self):
        with pytest.raises(ValueError):
            image_interval(np.zeros((2, 2)), -np.ones((2, 2)), np.ones((2, 2)), 1.0)


class TestPreviousResiduals:
    def test_single_frame(self):
        h = PreviousResidualsHeuristic(window=5)
        h.update(np.full((1, 1), 3.0), np.zeros((1, 1)))  # pred - y = +3
        l_map, u_map = h.maps((1, 1))
        assert l_map[0, 0] == 3.0 and u_map[0, 0] == 0.0

    def test_window_means_of_clamped_residuals(self):
        h = PreviousResidualsHeuristic(window=5)
        for r in (1.0, -1.0, 1.0, -1.0, 1.0):
            h.update(np.full((1, 1), r), np.zeros((1, 1)))
        l_map, u_map = h.maps((1, 1))
        assert l_map[0, 0] == pytest.approx(0.6)
        assert u_map[0, 0] == pytest.approx(0.4)

    def test_matches_from_scratch_recomputation(self):
        rng = np.random.default_rng(9)
        h = PreviousResidualsHeuristic(window=5)
        history = []
        for _ in range(20):
            pred = rng.normal(size=(4, 4))
            y = rng.normal(size=(4, 4))
            h.update(pred, y)
            history.append(pred - y)
            l_map, u_map = h.maps((4, 4))
            recent = np.asarray(history[-5:])
            np.testing.assert_allclose(l_map, np.maximum(recent, 0).mean(axis=0))
            np.testing.assert_allclose(u_map, np.maximum(-recent, 0).mean(axis=0))


class TestConstructorMonotonicity:
    """Larger adjustment never yields a smaller set, for fixed model output."""

    def _subset(self, s1, s2, probe):
        for y in probe:
            if s1.contains(y) and not s2.contains(y):
                return False
        return True

    def test_cqr_constructor(self):
        model = ConstantModel({0.05: -1.0, 0.95: 1.0})
        ctor = CqrConstructor(0.05, 0.95)
        probe = np.linspace(-6, 6, 50)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a1, a2 = sorted(rng.uniform(-3, 3, size=2))
            assert self._subset(ctor.build(None, a1, model),
                                ctor.build(None, a2, model), probe)

    def test_quantile_scale_monotone(self):
        model = OracleModel(lambda x: 0.0, lambda x: 1.0)
        rng = np.random.default_rng(2)
        probe = np.linspace(-5, 5, 30)
        for _ in range(100):
            t1, t2 = sorted(rng.uniform(-1.0, -0.01, size=2))
            assert self._subset(quantile_scale_interval(model, None, t1),
                                quantile_scale_interval(model, None, t2), probe)


class TestSentinels:
    def test_empty_and_full(self):
        assert not EMPTY_SET.contains(0.0)
        assert FULL_SPACE.contains(0.0)
        assert EMPTY_SET.size() == 0.0
        assert math.isinf(FULL_SPACE.size())

    def test_interval_closed_endpoints(self):
        s = Interval(2.0, 4.0)
        assert s.contains(2.0) and s.contains(4.0)
        assert not s.contains(4.0000001)

    def test_grid_size_clamps_inverted(self):
        g = IntervalGrid(np.array([[0.0, 2.0]]), np.array([[1.0, 1.0]]))
        assert g.size() == pytest.approx(0.5)
