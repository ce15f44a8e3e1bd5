import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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


def _replaced(s, score, prev_loss, r):
    """The update as it was: the same lam, through dataclasses.replace,
    which builds the successor field by field and runs __post_init__."""
    if s.kind == "score_adaptive":
        step = s.beta_score * score
    else:
        step = s.beta_score * score * math.exp(s.beta_loss * abs(prev_loss - r))
    return dataclasses.replace(
        s, lam=max(min(s.lam - step, s.beta_high), s.beta_low))


def _bits(s):
    """Every field, floats by their bytes, so -0.0 and 0.0 differ."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in dataclasses.astuple(s))


class _Sub(Stretch):
    """A subclass, as the benchmark's timing proxy is."""


_FINITE = st.floats(-1e3, 1e3)
_STEP = st.tuples(_FINITE, st.floats(0.0, 1.0), st.floats(-1.0, 1.0))


class TestUpdateSameBits:
    @given(cls=st.sampled_from([Stretch, _Sub]),
           kind=st.sampled_from(["score_adaptive", "error_adaptive"]),
           beta_score=st.floats(-2.0, 2.0), beta_loss=st.floats(0.0, 5.0),
           beta_low=st.floats(-5.0, 0.0) | st.just(-math.inf),
           beta_high=st.floats(0.0, 5.0) | st.just(math.inf),
           lam=st.floats(-5.0, 5.0), steps=st.lists(_STEP, max_size=30))
    # clipped at beta_low, then at beta_high, then inside again
    @example(cls=_Sub, kind="score_adaptive", beta_score=1.0, beta_loss=0.0,
             beta_low=-0.5, beta_high=0.5, lam=0.0,
             steps=[(100.0, 0.0, 0.0), (-100.0, 0.0, 0.0), (0.25, 0.0, 0.0)])
    @example(cls=Stretch, kind="error_adaptive", beta_score=0.5,
             beta_loss=2.0, beta_low=-1.0, beta_high=0.0, lam=-0.5,
             steps=[(-50.0, 1.0, 0.1), (50.0, 0.0, 0.1), (-0.0, 0.0, 0.0)])
    # a lam of -0.0 stays -0.0
    @example(cls=Stretch, kind="score_adaptive", beta_score=1.0,
             beta_loss=0.0, beta_low=-1.0, beta_high=1.0, lam=-0.0,
             steps=[(0.0, 0.0, 0.0)])
    def test_chain_equals_the_replace_chain(self, cls, kind, beta_score,
                                            beta_loss, beta_low, beta_high,
                                            lam, steps):
        lam = clip(lam, beta_low, beta_high)
        fields = {"beta_score": beta_score, "beta_low": beta_low,
                  "beta_high": beta_high, "lam": lam}
        if kind == "error_adaptive":
            fields["beta_loss"] = beta_loss
        s = ref = cls(kind, **fields)
        for score, prev_loss, r in steps:
            before = _bits(s)
            nxt = s.updated(score, prev_loss, r)
            ref = _replaced(ref, score, prev_loss, r)
            assert _bits(s) == before  # self is unchanged
            assert nxt is not s and type(nxt) is cls
            assert _bits(nxt) == _bits(ref)
            assert nxt == ref and hash(nxt) == hash(ref)
            s = nxt

    def test_nan_step_fails_at_its_step(self):
        s = Stretch("score_adaptive", beta_score=0.1, beta_low=-1.0,
                    beta_high=1.0)
        s = s.updated(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="lam"):
            s.updated(math.nan, 0.0, 0.0)


def _frozen_updated(s, score, prev_loss, r):
    """``Stretch.updated`` as it was when the loop called it every step: the
    step computed inside the method, the successor copied field by field."""
    kind = s.kind
    if kind == "score_adaptive":
        step = s.beta_score * score
    elif kind == "error_adaptive":
        step = s.beta_score * score * math.exp(s.beta_loss * abs(prev_loss - r))
    else:
        return s
    lo, hi = s.beta_low, s.beta_high
    lam = clip(s.lam - step, lo, hi)
    if not lo <= lam <= hi:
        raise ValueError(f"stretch update gave lam={lam}, outside [{lo}, {hi}]")
    new = object.__new__(type(s))
    new.__dict__.update(s.__dict__)
    new.__dict__["lam"] = lam
    return new


def _f64(x) -> bytes:
    return np.float64(x).tobytes()


# scores and losses with the odd values a step can see: signed zeros, huge
# scores that clip at either end, and a NaN that must fail its step
_SCORE = (st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e300, -1e300,
                                                   math.nan]))
_FLOAT_STEP = st.tuples(_SCORE, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


class TestNextLamSameBits:
    """The loop advances lam as a float with ``next_lam``; every value is the
    ``lam`` of the frozen ``updated`` chain, bit for bit, and a NaN step
    fails at the same step."""

    @given(kind=st.sampled_from(STRETCH_KINDS),
           beta_score=st.floats(-2.0, 2.0), beta_loss=st.floats(0.0, 5.0),
           beta_low=st.floats(-5.0, 0.0) | st.just(-math.inf),
           beta_high=st.floats(0.0, 5.0) | st.just(math.inf),
           lam=st.floats(-5.0, 5.0), steps=st.lists(_FLOAT_STEP, max_size=40))
    # clipped at beta_high, then at beta_low, then inside again
    @example(kind="error_adaptive", beta_score=1.0, beta_loss=0.5,
             beta_low=-0.5, beta_high=0.5, lam=0.0,
             steps=[(-100.0, 1.0, 0.1), (100.0, 0.0, 0.1), (0.25, 0.5, 0.1)])
    # unclipped, then a NaN score fails the third step
    @example(kind="score_adaptive", beta_score=0.5, beta_loss=0.0,
             beta_low=-math.inf, beta_high=math.inf, lam=-0.0,
             steps=[(0.0, 0.0, 0.0), (1e300, 0.0, 0.0), (math.nan, 0.0, 0.0),
                    (1.0, 0.0, 0.0)])
    def test_float_chain_equals_updated_chain(self, kind, beta_score,
                                              beta_loss, beta_low, beta_high,
                                              lam, steps):
        fields = {}
        if kind in ("score_adaptive", "error_adaptive"):
            fields = {"beta_score": beta_score, "beta_low": beta_low,
                      "beta_high": beta_high,
                      "lam": clip(lam, beta_low, beta_high)}
        if kind == "error_adaptive":
            fields["beta_loss"] = beta_loss
        s = ref = Stretch(kind, **fields)
        lam = s.lam
        for score, prev_loss, r in steps:
            try:
                ref = _frozen_updated(ref, score, prev_loss, r)
            except ValueError:
                with pytest.raises(ValueError, match="lam"):
                    s.next_lam(lam, score, prev_loss, r)
                return
            lam = s.next_lam(lam, score, prev_loss, r)
            assert _f64(lam) == _f64(ref.lam)
            assert _f64(s.updated(score, prev_loss, r).lam) == \
                _f64(_frozen_updated(s, score, prev_loss, r).lam)
        assert s.lam == fields.get("lam", 0.0)  # next_lam reads no state

    @given(kind=st.sampled_from(["score_adaptive", "error_adaptive"]),
           beta_score=st.sampled_from([0.0, -0.0, 0.5, -2.0, 1e300]),
           beta_loss=st.sampled_from([0.0, 1.0, 400.0, 800.0]),
           beta_low=st.sampled_from([-0.0, 0.0, -0.5, -math.inf]),
           beta_high=st.sampled_from([0.0, -0.0, 0.5, math.inf]),
           lam=st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25]),
           score=_SCORE | st.sampled_from([math.inf, -math.inf]),
           prev_loss=st.sampled_from([0.0, -0.0, 1.0, 2.0]),
           r=st.sampled_from([0.0, 0.11, 1.0]))
    # a step of exactly zero at a bound of the other zero's sign
    @example(kind="score_adaptive", beta_score=-0.0, beta_loss=0.0,
             beta_low=-0.0, beta_high=0.0, lam=0.0, score=0.0, prev_loss=0.0,
             r=0.0)
    # an infinite score against infinite bounds: lam becomes -inf
    @example(kind="score_adaptive", beta_score=0.5, beta_loss=0.0,
             beta_low=-math.inf, beta_high=math.inf, lam=0.0,
             score=math.inf, prev_loss=0.0, r=0.0)
    # exp overflows before any clip
    @example(kind="error_adaptive", beta_score=0.5, beta_loss=800.0,
             beta_low=-0.5, beta_high=0.5, lam=0.0, score=1.0, prev_loss=2.0,
             r=0.0)
    def test_one_step_edges(self, kind, beta_score, beta_loss, beta_low,
                            beta_high, lam, score, prev_loss, r):
        """One step from edge values: signed zeros at the bounds, infinite
        scores, a 0 * inf step and an overflowing exp. The value's bits, or
        the error's type and text, equal the frozen step's."""
        fields = {"beta_score": beta_score, "beta_low": beta_low,
                  "beta_high": beta_high,
                  "lam": clip(lam, beta_low, beta_high)}
        if kind == "error_adaptive":
            fields["beta_loss"] = beta_loss
        s = Stretch(kind, **fields)

        def outcome(step):
            try:
                return _f64(step())
            except (ValueError, OverflowError) as exc:
                return type(exc), str(exc)

        assert outcome(lambda: s.next_lam(s.lam, score, prev_loss, r)) == \
            outcome(lambda: _frozen_updated(s, score, prev_loss, r).lam)

    def test_nan_step_fails_at_its_step(self):
        s = Stretch("error_adaptive", beta_score=0.1, beta_loss=1.0,
                    beta_low=-math.inf, beta_high=math.inf)
        lam = s.next_lam(0.0, 1.0, 0.5, 0.1)
        assert _f64(lam) == _f64(_frozen_updated(s, 1.0, 0.5, 0.1).lam)
        with pytest.raises(ValueError, match="lam"):
            s.next_lam(lam, 1.0, math.nan, 0.1)


def _copied_updated(s, score, prev_loss, r):
    """``Stretch.updated`` as it was before it went back to
    ``dataclasses.replace``: ``next_lam``, then a successor copied from
    ``s``'s fields without running the constructor."""
    if not s.is_adaptive:
        return s
    lam = s.next_lam(s.lam, score, prev_loss, r)
    new = object.__new__(type(s))
    new.__dict__.update(s.__dict__)
    new.__dict__["lam"] = lam
    return new


class TestUpdatedByReplaceSameBits:
    """``updated`` through ``dataclasses.replace`` gives the copied
    successor's fields, bit for bit, keeps the subclass, and fails a NaN
    step with the same error."""

    @given(cls=st.sampled_from([Stretch, _Sub]),
           kind=st.sampled_from(STRETCH_KINDS),
           beta_score=st.floats(-2.0, 2.0), beta_loss=st.floats(0.0, 5.0),
           beta_low=st.floats(-5.0, 0.0) | st.just(-math.inf),
           beta_high=st.floats(0.0, 5.0) | st.just(math.inf),
           lam=st.floats(-5.0, 5.0), steps=st.lists(_FLOAT_STEP, max_size=30))
    # a lam of -0.0 stays -0.0 over a zero step
    @example(cls=_Sub, kind="score_adaptive", beta_score=1.0, beta_loss=0.0,
             beta_low=-1.0, beta_high=1.0, lam=-0.0, steps=[(0.0, 0.0, 0.0)])
    # a subclass clipped at both ends, then a NaN score at the fourth step
    @example(cls=_Sub, kind="error_adaptive", beta_score=1.0, beta_loss=0.5,
             beta_low=-0.5, beta_high=0.5, lam=-0.0,
             steps=[(-100.0, 1.0, 0.1), (100.0, 0.0, 0.1), (0.25, 0.5, 0.1),
                    (math.nan, 0.0, 0.1)])
    def test_chain_equals_the_copied_chain(self, cls, kind, beta_score,
                                           beta_loss, beta_low, beta_high,
                                           lam, steps):
        fields = {}
        if kind in ("score_adaptive", "error_adaptive"):
            fields = {"beta_score": beta_score, "beta_low": beta_low,
                      "beta_high": beta_high,
                      "lam": clip(lam, beta_low, beta_high)}
        if kind == "error_adaptive":
            fields["beta_loss"] = beta_loss
        s = ref = cls(kind, **fields)
        for score, prev_loss, r in steps:
            try:
                ref = _copied_updated(ref, score, prev_loss, r)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    s.updated(score, prev_loss, r)
                assert str(raised.value) == str(exc)
                return
            nxt = s.updated(score, prev_loss, r)
            assert type(nxt) is cls and _bits(nxt) == _bits(ref)
            assert (nxt is s) == (ref is s)
            s = nxt

    def test_infinite_lam_is_rejected_by_the_constructor(self):
        # only an unclipped range can overflow lam; the copied successor
        # kept lam = -inf, the constructor rejects it
        s = Stretch("score_adaptive", beta_score=2.0, beta_low=-math.inf,
                    beta_high=math.inf)
        assert _copied_updated(s, 1e308, 0.0, 0.0).lam == -math.inf
        with pytest.raises(ValueError, match="lam must be finite"):
            s.updated(1e308, 0.0, 0.0)

_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                            math.nan])


class TestClip:
    def test_exact_formula(self):
        assert clip(5.0, -1.0, 1.0) == 1.0
        assert clip(-5.0, -1.0, 1.0) == -1.0
        assert clip(0.25, -1.0, 1.0) == 0.25

    @given(*[_SPECIAL | st.floats(allow_nan=True)] * 3)
    def test_same_operand_as_max_min(self, x, lo, hi):
        assert np.float64(clip(x, lo, hi)).tobytes() == \
            np.float64(max(min(x, hi), lo)).tobytes()


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Stretch("sigmoid")

    def test_bounds_must_straddle_zero(self):
        with pytest.raises(ValueError):
            Stretch("score_adaptive", beta_low=0.1, beta_high=1.0)

    @pytest.mark.parametrize("name", ["beta_score", "beta_loss", "lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_fields_must_be_finite(self, name, value):
        fields = {"beta_low": -math.inf, "beta_high": math.inf, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Stretch("error_adaptive", **fields)

    def test_unclipped_range_is_valid(self):
        s = Stretch("score_adaptive", beta_score=0.1, beta_low=-math.inf,
                    beta_high=math.inf)
        assert s.updated(1e6, 0.0, 0.0).lam == -1e5

    def test_lam_inside_bounds(self):
        with pytest.raises(ValueError):
            Stretch("score_adaptive", beta_low=-0.1, beta_high=0.1, lam=0.5)
