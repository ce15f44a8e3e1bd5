"""Online base models exposing quantile predictions.

The calibration layer treats the model as a black box with two methods:
``predict(x, tau)`` for a conditional-quantile estimate and ``update(x, y)``
to learn from the newly revealed pair. The risk guarantee holds no matter
how good or bad the model is; these implementations exist so experiments
have something honest to calibrate.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array

import numpy as np


def pinball_loss(y, yhat, tau: float):
    """Quantile (pinball) loss: tau*(y-yhat) above the estimate,
    (1-tau)*(yhat-y) at or below it. ``y`` and ``yhat`` may be arrays,
    which give the loss of each element; scalars give a float."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    d = np.subtract(y, yhat)
    loss = np.where(d > 0, tau * d, (1.0 - tau) * -d)
    return loss if loss.ndim else float(loss)


def pinball_grad(y: float, yhat: float, tau: float) -> float:
    """Subgradient of the pinball loss with respect to the estimate.

    -tau when the estimate is below the target, (1-tau) otherwise; the kink
    at y == yhat takes the second branch, matching the loss definition.
    """
    return -tau if y > yhat else (1.0 - tau)


class LinearPinballModel:
    """Linear quantile regressor trained by stochastic subgradient steps.

    One independent weight vector per tracked quantile level; no crossing
    penalty (crossings are normalized away downstream). ``n_sgd_steps``
    controls how many subgradient steps each arrival triggers.

    The weight vectors are the rows of one ``(levels, dim)`` array, one row
    per distinct level; ``weights`` maps each level to its row, a live view
    that every update changes in place. Each step builds its features once,
    in a preallocated buffer whose intercept slot stays 1.0, and computes
    each level's dot product once, one ``ndarray.dot`` per row (a batched
    matrix-vector product can round differently): the first ``predict`` at
    an ``x`` evaluates every tracked level, and later ``predict`` calls and
    the next ``update`` at the same values of ``x`` reuse the results. The
    cache is keyed on the bytes of ``x``, not on its identity, so
    ``predict`` is a pure function of the weights and the values of ``x``,
    even when a caller reuses and mutates one input buffer. ``update``
    writes every level's step coefficient into one column, multiplies it
    by the features into one preallocated buffer, subtracts that from the
    weights in place, and clears the cache; the weights must change only
    through ``update``. ``x`` must hold exactly ``n_features`` values.
    """

    def __init__(self, n_features: int, taus=(0.05, 0.95), lr: float = 0.1,
                 fit_intercept: bool = True, n_sgd_steps: int = 1):
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        if not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"learning rate must be finite and "
                             f"nonnegative, got {lr}")
        if n_sgd_steps < 1:
            raise ValueError("n_sgd_steps must be >= 1")
        self.taus = tuple(float(t) for t in taus)
        for t in self.taus:
            if not 0.0 < t < 1.0:
                raise ValueError(f"tracked tau must be in (0, 1), got {t}")
        self.lr = lr
        self.fit_intercept = fit_intercept
        self.n_sgd_steps = n_sgd_steps
        self.n_features = n_features
        dim = n_features + (1 if fit_intercept else 0)
        levels = tuple(dict.fromkeys(self.taus))
        self._w = np.zeros((len(levels), dim))
        self.weights = dict(zip(levels, self._w))
        self._feats = np.ones(dim)
        self._x = self._feats[:n_features]
        self._coef = np.empty((len(levels), 1))
        self._step = np.empty_like(self._w)
        self._key = None
        self._dots = {}

    def _load(self, x) -> dict:
        """Dot product of every tracked level's weights with the features of
        ``x``, cached per value of ``x`` until the next update."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 1 or x.size != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got shape {x.shape}")
        key = x.tobytes()
        if key != self._key:
            feats = self._feats
            self._x[...] = x
            self._dots = {t: float(w.dot(feats))
                          for t, w in self.weights.items()}
            self._key = key
        return self._dots

    def predict(self, x, tau: float) -> float:
        dots = self._load(x)
        try:
            return dots[float(tau)]
        except KeyError:
            raise ValueError(
                f"tau {tau} is not tracked; tracked: {self.taus}") from None

    def update(self, x, y: float) -> None:
        dots = self._load(x)
        feats = self._feats
        # A non-finite feature makes every dot product non-finite, so one
        # finite dot product proves the features finite; a dot product that
        # overflowed falls back to checking the features themselves.
        first = next(iter(dots.values()))
        if not math.isfinite(y) or not (math.isfinite(first)
                                        or np.isfinite(feats).all()):
            raise ValueError("non-finite input to model update")
        self._key = None
        lr, coef, w, step = self.lr, self._coef, self._w, self._step
        rows = self.weights
        yhats = dots.values()
        for k in range(self.n_sgd_steps):
            if k:
                yhats = [float(row.dot(feats)) for row in rows.values()]
            for i, (tau, yhat) in enumerate(zip(rows, yhats)):
                coef[i, 0] = lr * pinball_grad(y, yhat, tau)
            np.multiply(coef, feats, step)
            np.subtract(w, step, w)


class OracleModel:
    """Analytic conditional quantiles of a known Gaussian stream.

    ``mu_fn``/``sigma_fn`` map a feature vector to the conditional mean and
    standard deviation; any quantile level can be queried. scipy is imported
    when the model is built, so that no other path loads it and a missing
    scipy fails here, before the first step.
    """

    def __init__(self, mu_fn, sigma_fn):
        from scipy.special import ndtri

        self._ndtri = ndtri
        self.mu_fn = mu_fn
        self.sigma_fn = sigma_fn
        self._z = {}

    def predict(self, x, tau: float) -> float:
        z = self._z.get(tau)
        if z is None:
            if not 0.0 < tau < 1.0:
                raise ValueError(f"tau must be in (0, 1), got {tau}")
            z = float(self._ndtri(tau))
            self._z[tau] = z
        return self.mu_fn(x) + self.sigma_fn(x) * z

    def update(self, x, y: float) -> None:
        pass


class ConstantModel:
    """Fixed per-quantile outputs, independent of the input. Test scaffolding
    and a worst-case stand-in: the calibration layer must cope with it. Every
    output (each of ``values`` and ``default``) is finite."""

    def __init__(self, values: dict | None = None, default: float = 0.0):
        self.values = dict(values) if values else {}
        self.default = default
        for tau, v in [*self.values.items(), ("default", default)]:
            if not math.isfinite(v):
                raise ValueError(f"constant model output for {tau} must be "
                                 f"finite, got {v}")

    def predict(self, x, tau: float) -> float:
        return float(self.values.get(tau, self.default))

    def update(self, x, y: float) -> None:
        pass


class ReplayModel:
    """Per-step quantile predictions precomputed by an external model.

    The plug-in path for models trained outside this package: run them
    offline, dump one row of quantile estimates per stream step, and replay
    the rows here. ``update`` advances the cursor; ``predict`` reads the
    current row, so the calibration loop's ordering is preserved.

    Each column is checked finite as a float array, then copied into one
    stdlib ``array('d')`` in place of the array: 8 bytes per step and
    level, and ``predict`` is an index that returns a Python float.
    ``predict`` looks ``tau`` up as given and, when that misses (a str,
    say), as ``float(tau)``; a number equal to a tracked level finds the
    same row either way.
    """

    def __init__(self, predictions: dict):
        self._rows = {}
        for t, v in predictions.items():
            if float(t) in self._rows:
                first = next(u for u in predictions if float(u) == float(t))
                raise ValueError(f"keys {first!r} and {t!r} both replay "
                                 f"level {float(t)}")
            self._rows[float(t)] = np.asarray(v, dtype=float)
        self.taus = tuple(sorted(self._rows))
        if not self.taus:
            raise ValueError("need at least one tracked quantile level")
        self.n_steps = len(next(iter(self._rows.values())))
        for t, v in self._rows.items():
            if v.ndim != 1:
                raise ValueError(f"prediction column for tau={t} must be "
                                 f"one-dimensional, got shape {v.shape}")
            if len(v) != self.n_steps:
                raise ValueError("prediction columns have unequal lengths")
            if not np.isfinite(v).all():
                raise ValueError(f"non-finite prediction for tau={t}")
            self._rows[t] = array("d", v.tobytes())
        self._t = 0

    @classmethod
    def from_csv(cls, path) -> "ReplayModel":
        """Columns named q_<tau>, e.g. q_0.05,q_0.95; one row per step. Two
        columns of one level (q_0.05 twice, or q_0.05 and q_0.050) are a
        ValueError that names both. The rows are parsed from the path, which
        numpy reads in blocks, after the header's physical lines (a quoted
        header cell may span two)."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            skip = reader.line_num
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
            # a header-only file replays zero steps
            warnings.filterwarnings("ignore", "loadtxt: input contained")
            data = np.loadtxt(path, delimiter=",", usecols=cols, ndmin=2,
                              skiprows=skip)
        data = data.reshape(-1, len(cols))
        return cls(dict(zip(taus, data.T)))

    def rewind(self) -> None:
        """Move the cursor back to the first row, for a run that replays the
        rows from the start."""
        self._t = 0

    def predict(self, x, tau: float) -> float:
        try:  # a tracked level before the end: the row's float
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
