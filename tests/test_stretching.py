import math

import numpy as np
import pytest

from riskcal.stretching import STRETCH_KINDS, Stretch, clip


class TestApply:
    def test_identity(self):
        assert Stretch("none").apply(2.0) == 2.0

    def test_exponential_values(self):
        s = Stretch("exponential")
        assert s.apply(0.0) == 0.0
        assert s.apply(1.0) == pytest.approx(math.e - 1.0)
        assert s.apply(-1.0) == pytest.approx(-(math.e - 1.0))

    def test_linear_zone(self):
        s = Stretch("exp_linear_zone")
        assert s.apply(0.05) == 0.05
        assert s.apply(-0.1) == -0.1
        assert s.apply(0.5) == pytest.approx(math.exp(0.5) - 1.0)
        assert s.apply(-0.5) == pytest.approx(-math.exp(0.5) + 1.0)

    def test_additive_lambda(self):
        s = Stretch("error_adaptive", beta_score=0.1, beta_low=-1.0,
                    beta_high=1.0, lam=0.3)
        assert s.apply(0.1) == pytest.approx(0.4)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(0)
        for kind in ("exponential", "exp_linear_zone"):
            s = Stretch(kind)
            assert s.apply(0.0) == 0.0
            for x in rng.uniform(0, 3, size=50):
                assert s.apply(-x) == pytest.approx(-s.apply(x))

    def test_strictly_monotone_every_kind(self):
        rng = np.random.default_rng(1)
        for kind in STRETCH_KINDS:
            s = Stretch(kind, beta_score=0.1, beta_low=-1.0, beta_high=1.0,
                        lam=0.25)
            for _ in range(200):
                t1, t2 = sorted(rng.uniform(-4, 4, size=2))
                if t1 == t2:
                    continue
                assert s.apply(t1) < s.apply(t2), kind


class TestUpdateLambda:
    def test_plain_step(self):
        s = Stretch("score_adaptive", beta_score=0.1, beta_low=-1.0,
                    beta_high=1.0)
        s2 = s.updated(score=2.0, prev_loss=0.0, r=0.0)
        assert s2.lam == pytest.approx(-0.2)

    def test_clip_engages(self):
        s = Stretch("score_adaptive", beta_score=1.0, beta_low=-0.5,
                    beta_high=0.5)
        assert s.updated(score=100.0, prev_loss=0.0, r=0.0).lam == -0.5

    def test_error_adaptive_value(self):
        # independently evaluated: 0.1 + 0.05*exp(0.15*|1-0.1|)
        s = Stretch("error_adaptive", beta_score=0.05, beta_loss=0.15,
                    beta_low=-1.0, beta_high=1.0, lam=0.1)
        s2 = s.updated(score=-1.0, prev_loss=1.0, r=0.1)
        assert s2.lam == pytest.approx(0.1 + 0.05 * math.exp(0.135))
        assert s2.lam == pytest.approx(0.15722, abs=1e-5)

    def test_error_term_neutral_when_beta_loss_zero(self):
        s = Stretch("error_adaptive", beta_score=0.1, beta_loss=0.0,
                    beta_low=-1.0, beta_high=1.0)
        assert s.updated(2.0, prev_loss=0.7, r=0.1).lam == pytest.approx(-0.2)

    def test_noop_for_non_adaptive(self):
        for kind in ("none", "exponential", "exp_linear_zone"):
            s = Stretch(kind)
            assert s.updated(5.0, 1.0, 0.1) is s

    def test_lambda_never_escapes(self):
        rng = np.random.default_rng(2)
        s = Stretch("error_adaptive", beta_score=0.5, beta_loss=0.3,
                    beta_low=-0.7, beta_high=0.4)
        for _ in range(500):
            s = s.updated(rng.normal() * 10, rng.uniform(0, 1), 0.1)
            assert -0.7 <= s.lam <= 0.4

    def test_update_does_not_mutate(self):
        s = Stretch("score_adaptive", beta_score=0.1, beta_low=-1.0,
                    beta_high=1.0)
        s.updated(1.0, 0.0, 0.0)
        assert s.lam == 0.0


class TestClip:
    def test_exact_formula(self):
        assert clip(5.0, -1.0, 1.0) == 1.0
        assert clip(-5.0, -1.0, 1.0) == -1.0
        assert clip(0.25, -1.0, 1.0) == 0.25


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Stretch("sigmoid")

    def test_bounds_must_straddle_zero(self):
        with pytest.raises(ValueError):
            Stretch("score_adaptive", beta_low=0.1, beta_high=1.0)

    def test_lam_inside_bounds(self):
        with pytest.raises(ValueError):
            Stretch("score_adaptive", beta_low=-0.1, beta_high=0.1, lam=0.5)
