import csv
import math
import re
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from riskcal.models import (ConstantModel, LinearPinballModel, OracleModel,
                            ReplayModel, pinball_grad, pinball_loss)


class TestPinballLoss:
    def test_above_estimate(self):
        assert pinball_loss(1.0, 0.0, 0.9) == pytest.approx(0.9)

    def test_exact_hit(self):
        assert pinball_loss(0.7, 0.7, 0.9) == 0.0

    def test_below_estimate(self):
        assert pinball_loss(0.0, 1.0, 0.9) == pytest.approx(0.1)

    def test_tau_outside_unit_interval(self):
        for tau in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                pinball_loss(0.0, 0.0, tau)

    def test_subgradient_matches_finite_differences(self):
        # central differences at non-kink points
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(1000):
            tau = rng.uniform(0.01, 0.99)
            y = rng.normal()
            yhat = y + rng.choice([-1, 1]) * rng.uniform(0.01, 3.0)
            fd = (pinball_loss(y, yhat + h, tau)
                  - pinball_loss(y, yhat - h, tau)) / (2 * h)
            g = pinball_grad(y, yhat, tau)
            assert abs(g - fd) <= 1e-6 * max(1.0, abs(fd))


class TestLinearPinballModel:
    def test_zero_learning_rate_freezes_weights(self):
        model = LinearPinballModel(2, (0.5,), lr=0.0)
        before = {t: w.copy() for t, w in model.weights.items()}
        model.update(np.array([1.0, 2.0]), 5.0)
        for t, w in model.weights.items():
            np.testing.assert_array_equal(w, before[t])

    def test_single_step_hand_computation(self):
        # y above the estimate: subgradient -tau*x, so w' = lr*tau*x
        model = LinearPinballModel(1, (0.9,), lr=0.1, fit_intercept=False)
        model.update(np.array([1.0]), 1.0)
        assert model.weights[0.9][0] == pytest.approx(0.09)

    def test_untracked_tau_rejected(self):
        model = LinearPinballModel(1, (0.05, 0.95))
        with pytest.raises(ValueError):
            model.predict(np.array([1.0]), 0.5)

    def test_non_finite_input_rejected(self):
        model = LinearPinballModel(1, (0.5,))
        with pytest.raises(ValueError):
            model.update(np.array([math.nan]), 1.0)
        with pytest.raises(ValueError):
            model.update(np.array([1.0]), math.inf)

    def test_converges_to_gaussian_quantile(self):
        # closed-form oracle: q_0.95(x) = 2x + Phi^{-1}(0.95) for y = 2x + N(0,1)
        rng = np.random.default_rng(7)
        model = LinearPinballModel(1, (0.05, 0.95), lr=0.05)
        for _ in range(50_000):
            x = rng.uniform(0.0, 1.0, size=1)
            model.update(x, 2.0 * x[0] + rng.normal())
        x0 = np.array([0.5])
        assert model.predict(x0, 0.95) == pytest.approx(
            1.0 + float(ndtri(0.95)), abs=0.15)
        assert model.predict(x0, 0.05) == pytest.approx(
            1.0 + float(ndtri(0.05)), abs=0.15)

    def test_multiple_sgd_steps(self):
        m1 = LinearPinballModel(1, (0.5,), lr=0.1, n_sgd_steps=3,
                                fit_intercept=False)
        m1.update(np.array([1.0]), 10.0)
        m3 = LinearPinballModel(1, (0.5,), lr=0.1, fit_intercept=False)
        for _ in range(3):
            m3.update(np.array([1.0]), 10.0)
        np.testing.assert_allclose(m1.weights[0.5], m3.weights[0.5])


class _FrozenPinballModel:
    """The linear pinball model's formulas before its feature buffer and
    dot-product cache: features rebuilt on every call, one ``w @ f`` per
    predict and per subgradient step."""

    def __init__(self, n_features, taus, lr, fit_intercept, n_sgd_steps):
        self.lr = lr
        self.fit_intercept = fit_intercept
        self.n_sgd_steps = n_sgd_steps
        dim = n_features + (1 if fit_intercept else 0)
        self.weights = {float(t): np.zeros(dim) for t in taus}

    def _features(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.fit_intercept:
            return np.concatenate([x, [1.0]])
        return x

    def predict(self, x, tau):
        return float(self.weights[float(tau)] @ self._features(x))

    def update(self, x, y):
        feats = self._features(x)
        for tau, w in self.weights.items():
            for _ in range(self.n_sgd_steps):
                g = pinball_grad(y, float(w @ feats), tau)
                w -= self.lr * g * feats


# "dup2" and "dup3" repeat a level: it has one weight row, as it had one
# weight vector
_TAU_SETS = {1: (0.5,), 2: (0.05, 0.95), 3: (0.1, 0.5, 0.9),
             "dup2": (0.5, 0.5), "dup3": (0.9, 0.1, 0.9)}


class TestLinearPinballBitEquivalence:
    """The cached model must reproduce the frozen formulas bit for bit:
    exported traces and the benchmark digests depend on it."""

    @staticmethod
    def _pair(n_features, n_taus, fit_intercept, n_sgd_steps, lr=0.7):
        taus = _TAU_SETS[n_taus]
        new = LinearPinballModel(n_features, taus, lr=lr,
                                 fit_intercept=fit_intercept,
                                 n_sgd_steps=n_sgd_steps)
        old = _FrozenPinballModel(n_features, taus, lr, fit_intercept,
                                  n_sgd_steps)
        return new, old, taus

    @staticmethod
    def _assert_same_weights(new, old):
        assert new.weights.keys() == old.weights.keys()
        for tau, w in old.weights.items():
            np.testing.assert_array_equal(new.weights[tau], w)

    @pytest.mark.parametrize("n_taus", [1, 2, 3, "dup2", "dup3"])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    @pytest.mark.parametrize("n_sgd_steps", [1, 3])
    def test_random_interleavings(self, n_taus, fit_intercept, n_sgd_steps):
        # each step: 0-3 predicts at the arrival or at a stale point, then
        # an update (usually), so cache hits, misses and update-without-
        # predict all occur
        levels = n_taus if isinstance(n_taus, int) \
            else 10 + len(_TAU_SETS[n_taus])
        rng = np.random.default_rng(100 * levels + 10 * fit_intercept
                                    + n_sgd_steps)
        n_features = 4
        new, old, taus = self._pair(n_features, n_taus, fit_intercept,
                                    n_sgd_steps)
        stale = rng.normal(size=n_features)
        for _ in range(1500):
            x = rng.normal(size=n_features) * rng.choice([0.01, 1.0, 30.0])
            for _ in range(rng.integers(0, 4)):
                at = stale if rng.random() < 0.2 else x
                tau = taus[rng.integers(len(taus))]
                assert new.predict(at, tau) == old.predict(at, tau)
            if rng.random() < 0.9:
                y = float(rng.normal() * 10.0)
                new.update(x, y)
                old.update(x, y)
            self._assert_same_weights(new, old)

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_one_buffer_reused_and_mutated(self, fit_intercept):
        # a caller that refills one array in place must never see values
        # cached for the buffer's previous contents
        rng = np.random.default_rng(5)
        new, old, taus = self._pair(3, 2, fit_intercept, 1)
        buf = np.empty(3)
        for _ in range(1000):
            buf[:] = rng.normal(size=3)
            for tau in taus:
                assert new.predict(buf, tau) == old.predict(buf, tau)
            buf[rng.integers(3)] += 1.0
            for tau in taus:
                assert new.predict(buf, tau) == old.predict(buf, tau)
            y = float(rng.normal())
            new.update(buf, y)
            old.update(buf, y)
        self._assert_same_weights(new, old)

    def test_predict_only_sequences(self):
        rng = np.random.default_rng(9)
        new, old, taus = self._pair(2, 3, True, 1)
        for _ in range(200):  # train to nonzero weights first
            x, y = rng.normal(size=2), float(rng.normal())
            new.update(x, y)
            old.update(x, y)
        points = [rng.normal(size=2) for _ in range(5)]
        for _ in range(500):
            x = points[rng.integers(len(points))]
            tau = taus[rng.integers(len(taus))]
            assert new.predict(x, tau) == old.predict(x, tau)
        self._assert_same_weights(new, old)

    def test_scalar_and_list_inputs(self):
        new, old, _ = self._pair(1, 1, True, 1)
        for x, y in [(0.5, 2.0), ([1.5], -1.0), (np.float64(2.5), 0.3)]:
            assert new.predict(x, 0.5) == old.predict(x, 0.5)
            new.update(x, y)
            old.update(x, y)
        self._assert_same_weights(new, old)

    def test_overflowing_dot_product_is_not_a_non_finite_input(self):
        # finite features whose dot product overflows still train, as before
        new, old, _ = self._pair(1, 1, False, 1, lr=1.0)
        x = np.array([1e300])
        new.update(x, 1.0)
        old.update(x, 1.0)
        assert new.weights[0.5][0] == 5e299
        with np.errstate(over="ignore"):
            assert math.isinf(new.predict(x, 0.5))
            new.update(x, 1.0)
            old.update(x, 1.0)
        self._assert_same_weights(new, old)

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_wrong_length_input_rejected(self, fit_intercept):
        model = LinearPinballModel(3, (0.5,), fit_intercept=fit_intercept)
        for x in (1.0, np.array([1.0]), np.zeros(2), np.zeros(4),
                  np.zeros((1, 3))):
            with pytest.raises(ValueError):
                model.predict(x, 0.5)
            with pytest.raises(ValueError):
                model.update(x, 0.0)
        np.testing.assert_array_equal(model.weights[0.5], 0.0)

    def test_non_finite_feature_rejected_after_predict(self):
        # the cached dot products stand in for the finiteness check; a NaN
        # or inf feature must still be refused, weights untouched
        model = LinearPinballModel(2, (0.05, 0.95), lr=0.5)
        model.update(np.array([1.0, 2.0]), 3.0)
        before = {t: w.copy() for t, w in model.weights.items()}
        for bad in (math.nan, math.inf, -math.inf):
            x = np.array([0.0, bad])
            model.predict(x, 0.05)
            with pytest.raises(ValueError):
                model.update(x, 1.0)
        for t, w in model.weights.items():
            np.testing.assert_array_equal(w, before[t])

    @pytest.mark.parametrize("n_sgd_steps", [1, 3])
    def test_weight_references_see_updates(self, n_sgd_steps):
        # each level's weights are a live row: a reference taken before the
        # updates reads the weights after them
        rng = np.random.default_rng(11)
        new, old, taus = self._pair(3, 3, True, n_sgd_steps)
        held = {t: new.weights[t] for t in taus}
        for _ in range(200):
            x, y = rng.normal(size=3), float(rng.normal() * 5.0)
            new.update(x, y)
            old.update(x, y)
        for t in taus:
            assert held[t] is new.weights[t]
            np.testing.assert_array_equal(held[t], old.weights[t])
        assert np.any(held[taus[0]] != 0.0)

    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_each_prediction_is_its_own_row_dot(self, fit_intercept):
        # one ndarray.dot per level: a batched matrix-vector product rounds
        # differently on some inputs and would change exported traces
        rng = np.random.default_rng(12)
        taus = (0.05, 0.25, 0.5, 0.75, 0.95)
        model = LinearPinballModel(7, taus, lr=0.9,
                                   fit_intercept=fit_intercept)
        for _ in range(300):
            x = rng.normal(size=7) * rng.choice([0.01, 1.0, 100.0])
            feats = np.concatenate([x, [1.0]]) if fit_intercept else x
            for t in taus:
                expected = float(model.weights[t].dot(feats))
                got = model.predict(x, t)
                assert np.float64(got).tobytes() == \
                    np.float64(expected).tobytes()
            model.update(x, float(rng.normal() * 30.0))


class TestOracleModel:
    def test_gaussian_quantile_identity(self):
        model = OracleModel(lambda x: float(x[0]), lambda x: 2.0)
        x = np.array([1.5])
        assert model.predict(x, 0.95) == pytest.approx(
            1.5 + 2.0 * 1.6449, abs=1e-3)

    def test_monotone_in_tau(self):
        model = OracleModel(lambda x: 0.0, lambda x: 1.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            t1, t2 = sorted(rng.uniform(0.01, 0.99, size=2))
            assert model.predict(None, t1) <= model.predict(None, t2)

    def test_update_is_noop(self):
        model = OracleModel(lambda x: 0.0, lambda x: 1.0)
        before = model.predict(None, 0.9)
        model.update(None, 123.0)
        assert model.predict(None, 0.9) == before


class TestConstantModel:
    def test_same_output_for_all_inputs(self):
        model = ConstantModel({0.5: 7.0})
        assert model.predict(np.zeros(3), 0.5) == 7.0
        assert model.predict(np.ones(3) * 99, 0.5) == 7.0

    def test_default_for_unknown_tau(self):
        model = ConstantModel({}, default=-1.0)
        assert model.predict(None, 0.123) == -1.0


class TestReplayModel:
    def test_rows_replayed_in_order(self):
        model = ReplayModel({0.05: [1.0, 2.0], 0.95: [3.0, 4.0]})
        assert model.predict(None, 0.05) == 1.0
        assert model.predict(None, 0.95) == 3.0  # same step, same row
        model.update(None, 0.0)
        assert model.predict(None, 0.05) == 2.0

    def test_exhaustion_raises(self):
        model = ReplayModel({0.5: [1.0]})
        model.update(None, 0.0)
        with pytest.raises(RuntimeError):
            model.predict(None, 0.5)

    def test_unknown_tau_and_bad_columns(self):
        model = ReplayModel({0.5: [1.0]})
        with pytest.raises(ValueError):
            model.predict(None, 0.9)
        with pytest.raises(ValueError):
            ReplayModel({0.1: [1.0], 0.9: [1.0, 2.0]})
        # a column of rows would replay lists, not floats
        with pytest.raises(ValueError, match=r"one-dimensional.*\(2, 1\)"):
            ReplayModel({0.5: [[1.0], [2.0]]})

    @pytest.mark.parametrize("second", ["0.05", "0.050", Decimal("0.05")])
    def test_two_keys_for_one_level(self, second):
        # each key is its own dict entry but names level 0.05 again
        with pytest.raises(ValueError, match=re.escape(
                f"keys 0.05 and {second!r} both replay level 0.05")):
            ReplayModel({0.05: [1.0], second: [2.0], 0.95: [3.0]})

    def test_from_csv_drives_the_engine(self, tmp_path):
        # precomputed predictions stand in for an externally trained model
        from riskcal.engine import RiskSpec, run_stream
        from riskcal.losses import BinaryLossFn
        from riskcal.sets import CqrConstructor

        rng = np.random.default_rng(0)
        n = 200
        lo = rng.normal(size=n) - 2.0
        hi = lo + 4.0
        path = tmp_path / "preds.csv"
        with open(path, "w") as fh:
            fh.write("q_0.05,q_0.95\n")
            for i in range(n):
                fh.write(f"{float(lo[i])!r},{float(hi[i])!r}\n")
        model = ReplayModel.from_csv(path)
        stream = [(0.0, float(lo[i] + rng.uniform(0, 4))) for i in range(n)]
        trace = run_stream(stream, model, CqrConstructor(0.05, 0.95),
                           BinaryLossFn(), RiskSpec(r=0.1, gamma=0.05,
                                                    m=-10, M=10))
        # with theta = 0 the first announced interval is exactly row 0
        assert trace.lo[0] == lo[0] and trace.hi[0] == hi[0]

    def test_from_csv_reads_q_columns_exactly(self, tmp_path):
        values = [[0.1, -0.0, 7.0], [5e-324, 1e300, -1.7976931348623157e308],
                  [1 / 3, 2.0, -2.5]]
        path = tmp_path / "preds.csv"
        with open(path, "w") as fh:
            fh.write("q_0.95,other,q_0.05\n")
            for row in values:
                fh.write(",".join(repr(v) for v in row) + "\n")
        model = ReplayModel.from_csv(path)
        assert model.taus == (0.05, 0.95) and model.n_steps == 3
        for t, row in enumerate(values):
            for tau, v in ((0.95, row[0]), (0.05, row[2])):
                got = model.predict(None, tau)
                assert np.float64(got).tobytes() == np.float64(v).tobytes()
            model.update(None, 0.0)

    def test_from_csv_header_errors(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="missing header row"):
            ReplayModel.from_csv(path)
        path.write_text("lo,hi\n1.0,2.0\n")
        with pytest.raises(ValueError, match="no q_<tau> columns in header"):
            ReplayModel.from_csv(path)

    def test_from_csv_header_only_replays_nothing(self, tmp_path):
        import warnings
        path = tmp_path / "preds.csv"
        path.write_text("q_0.05,q_0.95\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = ReplayModel.from_csv(path)
        assert model.taus == (0.05, 0.95) and model.n_steps == 0


class _ReplayModelFrozen:
    """ReplayModel as it kept each column as a float array and converted
    the current row with ``float`` on every ``predict``: the reference for
    ReplayModel, whose ``predict`` is an index."""

    def __init__(self, predictions: dict):
        self.taus = tuple(sorted(float(t) for t in predictions))
        if not self.taus:
            raise ValueError("need at least one tracked quantile level")
        self._rows = {float(t): np.asarray(v, dtype=float)
                      for t, v in predictions.items()}
        self.n_steps = len(next(iter(self._rows.values())))
        for t, v in self._rows.items():
            if len(v) != self.n_steps:
                raise ValueError("prediction columns have unequal lengths")
            if not np.isfinite(v).all():
                raise ValueError(f"non-finite prediction for tau={t}")
        self._t = 0

    def predict(self, x, tau: float) -> float:
        if self._t >= self.n_steps:
            raise RuntimeError(
                f"replay exhausted after {self.n_steps} steps")
        rows = self._rows.get(float(tau))
        if rows is None:
            raise ValueError(f"tau {tau} is not replayed; have {self.taus}")
        return float(rows[self._t])

    def update(self, x, y: float) -> None:
        self._t += 1


def _replay_outcome(call):
    """``call()``'s value as its type and int64 bits, or its error."""
    try:
        v = call()
    except (ValueError, RuntimeError, TypeError) as exc:
        return type(exc), str(exc)
    return type(v), np.float64(v).view(np.int64).item()


_REPLAY_KEYS = [0.05, 0.95, 0.5, 1, 2, -0.0]
_REPLAY_VALUES = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308,
                                     math.inf, math.nan]))


class TestReplayModelSameBits:
    """ReplayModel against the numpy-array-backed one: the same floats,
    types, errors and messages, before and after the replay is
    exhausted."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_predict_and_errors(self, data):
        keys = data.draw(st.lists(st.sampled_from(_REPLAY_KEYS), max_size=3,
                                  unique_by=float))
        n = data.draw(st.integers(0, 4))
        cols = {k: data.draw(st.lists(_REPLAY_VALUES, min_size=n,
                                      max_size=n + (k == 2)))
                for k in keys}
        as_array = data.draw(st.booleans())
        cols = {k: np.asarray(v) if as_array else v for k, v in cols.items()}
        models = []
        for cls in (ReplayModel, _ReplayModelFrozen):
            try:
                models.append(cls(cols))
            except ValueError as exc:
                models.append((type(exc), str(exc)))
        new, old = models
        if isinstance(old, tuple):
            assert new == old
            return
        assert (new.taus, new.n_steps) == (old.taus, old.n_steps)
        queries = [0.05, 0.95, 1, 2, np.float64(0.95), np.float64(1.0),
                   "0.05", "1", "abc", math.nan, np.float64(math.nan),
                   0.3, True, [0.05]]
        for _ in range(n + 2):  # one step past the end, and one more
            for tau in data.draw(st.lists(st.sampled_from(queries),
                                          min_size=1, max_size=4)):
                got = _replay_outcome(lambda: new.predict(None, tau))
                assert got == _replay_outcome(lambda: old.predict(None, tau))
            new.update(None, 0.0)
            old.update(None, 0.0)


class _ReplayModelListFrozen:
    """ReplayModel as it kept each column as a list of Python floats: the
    reference for the model that keeps each column as an ``array('d')``."""

    def __init__(self, predictions: dict):
        self.taus = tuple(sorted(float(t) for t in predictions))
        if not self.taus:
            raise ValueError("need at least one tracked quantile level")
        self._rows = {float(t): np.asarray(v, dtype=float)
                      for t, v in predictions.items()}
        self.n_steps = len(next(iter(self._rows.values())))
        for t, v in self._rows.items():
            if v.ndim != 1:
                raise ValueError(f"prediction column for tau={t} must be "
                                 f"one-dimensional, got shape {v.shape}")
            if len(v) != self.n_steps:
                raise ValueError("prediction columns have unequal lengths")
            if not np.isfinite(v).all():
                raise ValueError(f"non-finite prediction for tau={t}")
            self._rows[t] = v.tolist()
        self._t = 0

    def rewind(self) -> None:
        self._t = 0

    def predict(self, x, tau: float) -> float:
        try:
            return self._rows[tau][self._t]
        except (KeyError, IndexError, TypeError):
            pass
        if self._t >= self.n_steps:
            raise RuntimeError(
                f"replay exhausted after {self.n_steps} steps")
        rows = self._rows.get(float(tau))
        if rows is None:
            raise ValueError(f"tau {tau} is not replayed; have {self.taus}")
        return rows[self._t]

    def update(self, x, y: float) -> None:
        self._t += 1


class TestReplayModelSameAsLists:
    """The ``array('d')``-backed ReplayModel against the list-backed one,
    over whole replays: every ``predict`` gives the same value and type,
    ``rewind`` starts both over, and an untracked level and the end of the
    replay raise the same errors with the same messages."""

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_whole_replay(self, data):
        keys = data.draw(st.lists(st.sampled_from(_REPLAY_KEYS), min_size=1,
                                  max_size=3, unique_by=float))
        n = data.draw(st.integers(0, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        cols = {k: data.draw(st.lists(finite, min_size=n, max_size=n))
                for k in keys}
        if data.draw(st.booleans()):  # strided float arrays
            cols = {k: np.repeat(np.asarray(v, dtype=float), 2)[::2]
                    for k, v in cols.items()}
        new, old = ReplayModel(cols), _ReplayModelListFrozen(cols)
        assert (new.taus, new.n_steps) == (old.taus, old.n_steps)
        queries = keys + [np.float64(keys[0]), str(float(keys[0])), 0.3,
                          "abc", math.nan, [0.05]]
        steps = data.draw(st.lists(st.sampled_from(["update"] * 6
                                                   + ["rewind"]),
                                   min_size=n + 2, max_size=2 * n + 4))
        for step in steps:
            for tau in queries:
                got = _replay_outcome(lambda: new.predict(None, tau))
                assert got == _replay_outcome(lambda: old.predict(None, tau))
            for model in (new, old):
                if step == "update":
                    model.update(None, 0.0)
                else:
                    model.rewind()
        # read to the end of the replay, and one step past it
        new.rewind()
        old.rewind()
        for _ in range(n + 1):
            for tau in keys:
                got = _replay_outcome(lambda: new.predict(None, tau))
                assert got == _replay_outcome(lambda: old.predict(None, tau))
            new.update(None, 0.0)
            old.update(None, 0.0)
        assert _replay_outcome(lambda: new.predict(None, keys[0]))[0] \
            is RuntimeError


def _frozen_from_csv_by_handle(path):
    """ReplayModel.from_csv as it parsed the rows through the open handle,
    one line at a time: the oracle of the by-path test below."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: missing header row")
        cols = [i for i, c in enumerate(header) if c.startswith("q_")]
        if not cols:
            raise ValueError(f"{path}: no q_<tau> columns in header")
        taus = [float(header[i][2:]) for i in cols]
        for j, tau in enumerate(taus):
            if tau in taus[:j]:
                first = header[cols[taus.index(tau)]]
                raise ValueError(
                    f"{path}: columns {first!r} and {header[cols[j]]!r} "
                    f"both replay level {tau}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained")
            data = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2)
    data = data.reshape(-1, len(cols))
    return ReplayModel(dict(zip(taus, data.T)))


_REPLAY_ROWS = [[0.1, -0.0, 7.0], [5e-324, 1e300, -1.7976931348623157e308],
                [1 / 3, 2.0, -2.5], [-1e-300, 0.5, 2.2250738585072014e-308]]

# a replay file's text: its name, and its header and the text after the rows
_REPLAY_FILES = {
    "plain": ("q_0.95,other,q_0.05\n", ""),
    "header only": ("q_0.95,other,q_0.05\n", None),
    "quoted header across two lines":
        ('q_0.95,"a note\nof two lines",q_0.05\n', ""),
    "quoted level across two lines": ('"q_0.95\n",other,q_0.05\n', ""),
    "comment and blank lines": ("q_0.95,other,q_0.05\n# a comment\n",
                                "\n# the end\n\n\n"),
}


class TestReplayByPathSameBits:
    """``ReplayModel.from_csv`` parses the rows from the path, after the
    header's physical lines, and replays what the frozen reader that parsed
    them through the open handle replayed, bit for bit, with LF and with
    CRLF line ends."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("name", list(_REPLAY_FILES))
    def test_same_levels_and_bits(self, tmp_path, name, newline):
        header, tail = _REPLAY_FILES[name]
        rows = [] if tail is None else _REPLAY_ROWS
        text = header + "".join(",".join(repr(v) for v in row) + "\n"
                                for row in rows) + (tail or "")
        path = tmp_path / "preds.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text.replace("\n", newline))
        new, old = ReplayModel.from_csv(path), _frozen_from_csv_by_handle(path)
        assert (new.taus, new.n_steps) == (old.taus, old.n_steps) == (
            (0.05, 0.95), len(rows))
        for _ in range(len(rows) + 1):  # every row, and one past the end
            for tau in new.taus:
                got = _replay_outcome(lambda: new.predict(None, tau))
                assert got == _replay_outcome(lambda: old.predict(None, tau))
            new.update(None, 0.0)
            old.update(None, 0.0)


class TestReplayMemory:
    """``ReplayModel.from_csv`` keeps 8 bytes per row and level, plus the
    typed array's slack of up to 1/16: about 17 bytes per row for two
    levels of a 20,000-row file under ``tracemalloc``, where lists of
    Python floats kept 64."""

    N = 20_000

    def test_from_csv_keeps_typed_columns(self, tmp_path):
        path = tmp_path / "predictions.csv"
        rng = np.random.default_rng(0)
        with open(path, "w") as fh:
            fh.write("q_0.05,q_0.95\n")
            for lo, hi in rng.normal(size=(self.N, 2)).tolist():
                fh.write(f"{lo!r},{hi!r}\n")
        ReplayModel.from_csv(path)  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model = ReplayModel.from_csv(path)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert model.n_steps == self.N
        assert kept / self.N <= 20, f"kept {kept / self.N:.1f} B/row"


class TestOracleUnderCalibration:
    def test_theta_oscillates_near_zero_with_valid_coverage(self):
        # a perfect-quantile model needs no adjustment: theta hovers at 0
        # and coverage lands within the deterministic envelope of 90%
        from riskcal.engine import RiskSpec, risk_bound, run_stream
        from riskcal.losses import BinaryLossFn
        from riskcal.sets import CqrConstructor
        from riskcal.streams import KnownQuantileConfig, KnownQuantileStream

        kq = KnownQuantileStream(KnownQuantileConfig(seed=21))
        spec = RiskSpec(r=0.1, gamma=0.05, m=-2.0, M=2.0, B=1.0)
        trace = run_stream(kq.generate(30_000), kq.oracle_model(),
                           CqrConstructor(0.05, 0.95), BinaryLossFn(), spec)
        assert abs(trace.covered.mean() - 0.9) <= risk_bound(spec, 30_000)
        assert np.max(np.abs(trace.theta_post)) < 0.5
