import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import riskcal.losses
from riskcal.losses import CenterFailureFn, ImageMiscoverageFn
from riskcal.models import ConstantModel, OracleModel
from riskcal.sets import (EMPTY_SET, FULL_SPACE, ConstantHeuristic,
                          CqrConstructor, Interval, IntervalGrid,
                          PreviousResidualsHeuristic,
                          _window_mean, cqr_interval, cqr_score, image_interval,
                          quantile_scale_interval)
from riskcal.streams import ImageStreamConfig, _smooth_field, image_stream


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

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_constant_heuristic_rejects_a_value_not_finite_and_nonnegative(
            self, value):
        # an infinite or NaN value made NaN set sizes
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ConstantHeuristic(value)

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


class _CountingOracle(OracleModel):
    """Quantiles that depend on the value of x, with every predict counted."""

    def __init__(self):
        super().__init__(lambda x: float(x[0]), lambda x: 1.0 + abs(x[0]))
        self.calls = 0

    def predict(self, x, tau):
        self.calls += 1
        return super().predict(x, tau)


class TestCqrScoreReuse:
    """``score`` reuses the quantiles ``build`` took only for the very ``x``
    object of that build, and only once; anything else predicts again."""

    def _fresh(self, model, x, y):
        return cqr_score(model.predict(x, 0.05), model.predict(x, 0.95), y)

    def test_same_x_reuses_the_build_quantiles_once(self):
        model, ctor, x = _CountingOracle(), CqrConstructor(), np.array([0.5])
        ctor.build(x, 0.1, model)
        assert model.calls == 2
        assert ctor.score(x, 3.0, model) == self._fresh(model, x, 3.0)
        assert model.calls == 4  # two for the build, two for the check
        ctor.score(x, 3.0, model)  # dropped after its one use
        assert model.calls == 6

    def test_other_x_predicts_again(self):
        model, ctor = _CountingOracle(), CqrConstructor()
        x1, x2 = np.array([0.5]), np.array([-2.0])
        ctor.build(x1, 0.1, model)
        assert ctor.score(x2, 0.0, model) == self._fresh(model, x2, 0.0)
        # an equal value in another object is another x too
        x1_copy = x1.copy()
        calls = model.calls
        assert ctor.score(x1_copy, 0.0, model) == \
            self._fresh(model, x1_copy, 0.0)
        assert model.calls == calls + 4

    def test_observe_drops_the_quantiles(self):
        model, ctor, x = _CountingOracle(), CqrConstructor(), np.array([0.5])
        ctor.build(x, 0.1, model)
        ctor.observe(x, 0.0, model)
        ctor.score(x, 0.0, model)
        assert model.calls == 4

    def test_score_without_build_predicts(self):
        model, ctor, x = _CountingOracle(), CqrConstructor(), np.array([1.0])
        assert ctor.score(x, 0.0, model) == self._fresh(model, x, 0.0)


def _frozen_cqr_interval(q_lo, q_hi, adj):
    """``cqr_interval`` as it was: three isfinite calls, then the formula."""
    if not (math.isfinite(q_lo) and math.isfinite(q_hi) and math.isfinite(adj)):
        raise ValueError(f"non-finite interval inputs: ({q_lo}, {q_hi}, {adj})")
    lo = q_lo - adj
    hi = q_hi + adj
    if lo > hi:
        return EMPTY_SET
    return Interval(lo, hi)


class _FrozenCqr:
    """``CqrConstructor.build`` and ``score`` as they were: two isnan calls
    and a call of ``cqr_interval``; a cached score through ``max``."""

    def __init__(self, tau_lo=0.05, tau_hi=0.95):
        self.tau_lo = tau_lo
        self.tau_hi = tau_hi
        self._built = None

    def build(self, x, adj, model):
        q_lo = model.predict(x, self.tau_lo)
        q_hi = model.predict(x, self.tau_hi)
        if math.isnan(q_lo) or math.isnan(q_hi):
            raise RuntimeError("model produced non-finite quantile output")
        self._built = (x, q_lo, q_hi)
        return _frozen_cqr_interval(q_lo, q_hi, adj)

    def score(self, x, y, model):
        built = self._built
        if built is not None and built[0] is x:
            self._built = None
            return max(built[1] - y, y - built[2])
        return max(model.predict(x, self.tau_lo) - y,
                   y - model.predict(x, self.tau_hi))


class _Pair:
    """A model that predicts ``q_lo`` at the lower level and ``q_hi`` at any
    other, whatever they are, and counts its predictions."""

    def __init__(self, q_lo, q_hi):
        self.q_lo, self.q_hi = q_lo, q_hi
        self.calls = 0

    def predict(self, x, tau):
        self.calls += 1
        return self.q_lo if tau == 0.05 else self.q_hi


def _outcome_bits(call, *args):
    """What one call gives, as comparable bits: the sentinel itself, an
    interval's endpoint bits, a float's bits, or the exception's type and
    text."""
    try:
        out = call(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    if out is EMPTY_SET or out is FULL_SPACE:
        return out
    if isinstance(out, Interval):
        return Interval, _bits(out.lo), _bits(out.hi)
    return type(out), _bits(out)


# values that a build or a score can trip on: NaN, both infinities, both
# zeros, ties, and magnitudes whose sum or difference overflows
_ODD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0,
                        1e308, -1e308, 1.7e308, 5e-324])
_VALUE = _ODD | st.floats(-1e3, 1e3)


class TestCqrStepSameBits:
    """``build`` tests finiteness with one chained comparison and widens
    through the helper ``cqr_interval`` shares; the cached ``score`` takes
    max's rule inline. Against a frozen copy of both as they were, every
    set, score and error is the same, bits and text included, and so is the
    score that follows a build that raised."""

    @given(q_lo=_VALUE, q_hi=_VALUE, adj=_VALUE, y=_VALUE,
           equal=st.booleans(), same_x=st.booleans())
    # q_lo - adj overflows to -inf from finite inputs
    @example(q_lo=-1e308, q_hi=1.0, adj=1.7e308, y=0.0, equal=False,
             same_x=True)
    # inverted quantiles that stay inverted, and a tie that stays a point
    @example(q_lo=2.0, q_hi=1.0, adj=0.25, y=1.5, equal=False, same_x=True)
    @example(q_lo=1.0, q_hi=1.0, adj=0.0, y=1.0, equal=True, same_x=True)
    # a finite pair widened by inf: the ValueError, then a cached score
    @example(q_lo=-1.0, q_hi=1.0, adj=math.inf, y=3.0, equal=False,
             same_x=True)
    # a NaN quantile: the RuntimeError, and no cached score after it
    @example(q_lo=math.nan, q_hi=1.0, adj=0.0, y=0.0, equal=False,
             same_x=True)
    # signed zeros tie in the score: max keeps the first
    @example(q_lo=0.0, q_hi=0.0, adj=0.0, y=0.0, equal=True, same_x=True)
    @example(q_lo=-0.0, q_hi=-0.0, adj=-0.0, y=-0.0, equal=True, same_x=True)
    # a -0.0 and a 0.0 tie in the score: max keeps the first, -0.0
    @example(q_lo=-0.0, q_hi=0.0, adj=0.0, y=0.0, equal=False, same_x=True)
    # an inf label on an inf quantile: a NaN first term wins over a finite
    @example(q_lo=math.inf, q_hi=1.0, adj=0.0, y=math.inf, equal=False,
             same_x=True)
    # a NaN label: the first term is NaN, and so is the score
    @example(q_lo=-1.0, q_hi=1.0, adj=0.5, y=math.nan, equal=False,
             same_x=True)
    def test_build_then_score(self, q_lo, q_hi, adj, y, equal, same_x):
        if equal:
            q_hi = q_lo
        model, frozen_model = _Pair(q_lo, q_hi), _Pair(q_lo, q_hi)
        x, other = np.zeros(1), np.zeros(1)
        ctor, frozen = CqrConstructor(), _FrozenCqr()
        assert _outcome_bits(ctor.build, x, adj, model) == \
            _outcome_bits(frozen.build, x, adj, frozen_model)
        x_score = x if same_x else other
        assert _outcome_bits(ctor.score, x_score, y, model) == \
            _outcome_bits(frozen.score, x_score, y, frozen_model)
        # the cached quantiles are used once at most
        assert _outcome_bits(ctor.score, x, y, model) == \
            _outcome_bits(frozen.score, x, y, frozen_model)
        # and only where the frozen score used them
        assert model.calls == frozen_model.calls

    @given(q_lo=_VALUE, q_hi=_VALUE, adj=_VALUE)
    def test_cqr_interval(self, q_lo, q_hi, adj):
        assert _outcome_bits(cqr_interval, q_lo, q_hi, adj) == \
            _outcome_bits(_frozen_cqr_interval, q_lo, q_hi, adj)

    @pytest.mark.parametrize("q_lo,q_hi", [(math.nan, 1.0), (1.0, math.nan),
                                           (math.nan, math.inf),
                                           (math.inf, math.nan)])
    def test_nan_comes_before_the_non_finite_check(self, q_lo, q_hi):
        with pytest.raises(RuntimeError, match="non-finite quantile output"):
            CqrConstructor().build(None, math.inf, _Pair(q_lo, q_hi))


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


# ---------------------------------------------------------------------------
# The image fast path against frozen copies of the formulas it replaced.
# Exported traces and the benchmark digests depend on these bits.
# ---------------------------------------------------------------------------

class _FrozenPreviousResiduals:
    """PreviousResidualsHeuristic as it was: two deques, np.mean maps."""

    def __init__(self, window):
        self._plus = deque(maxlen=window)
        self._minus = deque(maxlen=window)

    def maps(self, shape):
        if not self._plus:
            z = np.zeros(shape, dtype=float)
            return z, z.copy()
        return np.mean(self._plus, axis=0), np.mean(self._minus, axis=0)

    def update(self, pred, y):
        resid = np.asarray(pred, dtype=float) - np.asarray(y, dtype=float)
        self._plus.append(np.maximum(resid, 0.0))
        self._minus.append(np.maximum(-resid, 0.0))


def _frozen_size(lo, hi):
    return float(np.mean(np.maximum(hi - lo, 0.0)))


def _frozen_rejects(l_map, u_map):
    return bool(np.any(l_map < 0) or np.any(u_map < 0))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _awkward_frames(rng, shape, n):
    """(pred, y) pairs with exact ties (a -0.0 residual), signed zeros,
    tiny and huge magnitudes, infinities and NaN."""
    for _ in range(n):
        pred = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300,
                                                             size=shape)
        y = pred + rng.normal(size=shape)
        tie = rng.random(shape) < 0.2
        y[tie] = pred[tie]
        pred[rng.random(shape) < 0.1] = -0.0
        y[rng.random(shape) < 0.05] = np.inf
        y[rng.random(shape) < 0.05] = np.nan
        yield pred, y


class TestImageFastPathBitEquivalence:
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_window_maps_match_np_mean(self, window):
        # from the empty window through partly filled ones to full windows
        rng = np.random.default_rng(window)
        new = PreviousResidualsHeuristic(window)
        old = _FrozenPreviousResiduals(window)
        shape = (6, 7)
        for step, (pred, y) in enumerate(_awkward_frames(rng, shape, 12)):
            for a, b in zip(new.maps(shape), old.maps(shape)):
                assert a.shape == b.shape and _bits(a) == _bits(b), step
            new.update(pred, y)
            old.update(pred, y)

    def test_window_mean_of_signed_zeros_and_nan(self):
        # np.mean's reduction starts from 0.0, so -0.0 pixels read back 0.0
        rng = np.random.default_rng(11)
        for n in range(1, 6):
            frames = deque(rng.choice([-0.0, 0.0, 1.5, -2.0, np.nan, np.inf],
                                      size=(n, 4, 4)))
            assert _bits(_window_mean(frames)) == \
                _bits(np.mean(frames, axis=0))

    def test_size_with_inverted_pixels(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            shape = tuple(rng.integers(1, 9, size=2))
            lo = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5)
            hi = lo + rng.normal(size=shape)  # about half the pixels invert
            hi.flat[0] = lo.flat[0] - 1.0
            g = IntervalGrid(lo, hi)
            assert _bits(g.size()) == _bits(_frozen_size(lo, hi))

    @pytest.mark.parametrize("l_val,u_val", [
        (1.0, 1.0), (0.0, -0.0), (-1e-300, 1.0), (1.0, -2.0), (np.nan, 1.0),
        (1.0, np.nan), (np.nan, -1.0), (-np.inf, 1.0), (np.inf, np.inf)])
    def test_image_interval_verdict_and_bounds(self, l_val, u_val):
        pred = np.arange(12.0).reshape(3, 4)
        l_map, u_map = np.ones((3, 4)), np.full((3, 4), 2.0)
        l_map[1, 2], u_map[2, 3] = l_val, u_val
        if _frozen_rejects(l_map, u_map):
            with pytest.raises(ValueError, match="nonnegative"):
                image_interval(pred, l_map, u_map, 0.7)
            return
        with np.errstate(invalid="ignore"):
            g = image_interval(pred, l_map, u_map, 0.7)
            assert _bits(g.lo) == _bits(pred - 0.7 * l_map)
            assert _bits(g.hi) == _bits(pred + 0.7 * u_map)

    def test_image_interval_passes_an_empty_grid(self):
        empty = np.zeros((0, 3))
        assert not _frozen_rejects(empty, empty)
        assert image_interval(empty, empty, empty, 1.0).lo.shape == (0, 3)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("shift_period,frame_corr",
                             [(0, 0.5), (7, 0.0), (7, 1.0), (3, 0.7)])
    def test_image_stream_frames(self, seed, shift_period, frame_corr):
        cfg = ImageStreamConfig(seed=seed, height=5, width=9,
                                shift_period=shift_period, shift_factor=2.5,
                                frame_corr=frame_corr)
        old = _frozen_image_stream(cfg, 30)
        for (p, y), (p0, y0) in zip(image_stream(cfg, 30), old, strict=True):
            assert _bits(p) == _bits(p0) and _bits(y) == _bits(y0)


def _frozen_image_stream(config, n_steps):
    """image_stream as it was: the noise built in fresh temporaries."""
    rng = np.random.default_rng(config.seed)
    base = _smooth_field(config.height, config.width)
    rho = config.frame_corr
    w_pixel = math.sqrt(max(0.0, 1.0 - rho ** 2))
    for t in range(n_steps):
        if config.shift_period and (t // config.shift_period) % 2 == 1:
            sigma = config.base_sigma * config.shift_factor
        else:
            sigma = config.base_sigma
        z = rng.normal()
        noise = sigma * (rho * z + w_pixel * rng.normal(size=base.shape))
        yield base, base + noise


class TestCoverageMemo:
    """A label changed in place is compared afresh."""

    def _grid(self):
        pred = np.linspace(-0.4, 0.4, 12).reshape(3, 4)
        return image_interval(pred, np.ones((3, 4)), np.ones((3, 4)), 0.5)

    def test_label_mutated_in_place_gets_a_fresh_grid(self):
        g = self._grid()
        y = np.zeros((3, 4))
        first = g.pixel_covered(y)
        assert first.all()
        y[0, 0] = 10.0  # same object, new content
        second = g.pixel_covered(y)
        np.testing.assert_array_equal(second, (g.lo <= y) & (y <= g.hi))
        assert not second[0, 0] and second.sum() == 11
        assert not g.contains(y)


@dataclasses.dataclass(frozen=True, slots=True)
class _MemoIntervalGrid:
    """``IntervalGrid`` as it was with its coverage memo: owned read-only
    bounds, and the grid of the last label kept, keyed by its bytes."""

    lo: np.ndarray
    hi: np.ndarray
    _key: tuple | None = dataclasses.field(default=None, init=False,
                                           repr=False, compare=False)
    _covered: np.ndarray | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("lo", "hi"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == float
                    and a.flags.owndata and not a.flags.writeable):
                a = np.array(a, dtype=float)
                a.flags.writeable = False
                object.__setattr__(self, name, a)

    def pixel_covered(self, y):
        y = np.asarray(y)
        key = (y.dtype, y.shape, y.tobytes())
        if key != self._key:
            covered = (self.lo <= y) & (y <= self.hi)
            covered.flags.writeable = False
            object.__setattr__(self, "_key", key)
            object.__setattr__(self, "_covered", covered)
        return self._covered

    def contains(self, y):
        return bool(self.pixel_covered(y).all())

    def size(self):
        d = self.hi - self.lo
        np.maximum(d, 0.0, out=d)
        return float(d.sum() / d.size)


def _outcome(call):
    """A call's float result by its bits, or its error by type and text."""
    try:
        return _bits(call())
    except ValueError as exc:
        return type(exc), str(exc)


_ODD = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
_BOUND = st.floats(-4.0, 4.0) | _ODD
_LABEL = st.floats(-6.0, 6.0) | _ODD


@st.composite
def _grid_case(draw):
    """Bounds of one grid (about half the pixels inverted), a label, the
    pixel edits made to it in place between calls, and a mask."""
    h, w = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cells = h * w
    lo = np.array(draw(st.lists(_BOUND, min_size=cells, max_size=cells)))
    hi = np.array(draw(st.lists(_BOUND, min_size=cells, max_size=cells)))
    y = np.array(draw(st.lists(_LABEL, min_size=cells, max_size=cells)))
    edits = draw(st.lists(st.tuples(st.integers(0, cells - 1), _LABEL),
                          max_size=4))
    mask = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    mask[draw(st.integers(0, cells - 1))] = True  # one valid pixel at least
    return (lo.reshape(h, w), hi.reshape(h, w), y.reshape(h, w), edits,
            np.array(mask).reshape(h, w))


class TestPlainGridSameBits:
    """The plain ``IntervalGrid`` gives the memoised grid's values, bit for
    bit, on inverted pixels, odd labels and labels changed in place."""

    @given(case=_grid_case())
    # every label pixel on a bound, then NaN, then -0.0 on a 0.0 bound
    @example(case=(np.zeros((2, 2)), np.ones((2, 2)), np.zeros((2, 2)),
                   [(0, math.nan), (0, -0.0), (3, math.inf)],
                   np.array([[True, False], [False, False]])))
    def test_contains_size_and_losses(self, case):
        lo, hi, y, edits, mask = case
        plain, memo = IntervalGrid(lo, hi), _MemoIntervalGrid(lo, hi)
        losses = [ImageMiscoverageFn(), ImageMiscoverageFn(mask=mask),
                  CenterFailureFn(), CenterFailureFn(mask=mask)]
        with pytest.MonkeyPatch.context() as mp, \
                np.errstate(invalid="ignore"):
            # the image losses accept the frozen grid as an IntervalGrid
            mp.setattr(riskcal.losses, "IntervalGrid",
                       (IntervalGrid, _MemoIntervalGrid))
            assert _bits(plain.size()) == _bits(memo.size())
            for cell, value in [(None, None), *edits]:
                if cell is not None:
                    y.flat[cell] = value  # same object, new content
                assert plain.contains(y) == memo.contains(y)
                assert plain.contains(y.tolist()) == memo.contains(y.tolist())
                for loss in losses:
                    assert _outcome(lambda: loss(y, plain)) == \
                        _outcome(lambda: loss(y, memo))
        assert _bits(plain.lo) == _bits(lo) and _bits(plain.hi) == _bits(hi)
