"""Prediction sets and the functions that construct them.

A prediction set is one of: a real interval, a grid of per-pixel intervals,
or one of the two sentinels ``EMPTY_SET`` / ``FULL_SPACE``. The sentinels
exist so the calibration engine can clamp to a set whose loss is known a
priori (empty -> always miscovered, full -> always covered), which is what
makes the long-run risk guarantee unconditional.

Constructors are kept monotone in the calibration adjustment: a larger
adjustment never produces a smaller set. The control loop relies on this.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np


class _EmptySet:
    """Sentinel: the empty prediction set. Contains nothing, size 0."""

    __slots__ = ()

    def contains(self, y) -> bool:
        return False

    def size(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "EMPTY_SET"


class _FullSpace:
    """Sentinel: the full label space. Contains everything, infinite size."""

    __slots__ = ()

    def contains(self, y) -> bool:
        return True

    def size(self) -> float:
        return math.inf

    def __repr__(self) -> str:
        return "FULL_SPACE"


EMPTY_SET = _EmptySet()
FULL_SPACE = _FullSpace()


@dataclass(slots=True)
class Interval:
    """Closed real interval [lo, hi]. Endpoint ties count as covered."""

    lo: float
    hi: float

    def contains(self, y) -> bool:
        return self.lo <= y <= self.hi

    def size(self) -> float:
        return self.hi - self.lo


@dataclass(slots=True)
class IntervalGrid:
    """Per-pixel closed intervals [lo, hi] over a 2-D grid of float bounds.

    Individual pixels may be inverted (lo > hi); such pixels contain nothing,
    which is exactly how a negative adjustment shows up in image losses.
    """

    lo: np.ndarray
    hi: np.ndarray

    def pixel_covered(self, y: np.ndarray) -> np.ndarray:
        """Boolean grid: which pixels of ``y`` fall inside their interval."""
        return (self.lo <= y) & (y <= self.hi)

    def contains(self, y) -> bool:
        """Whole-grid coverage: every pixel inside its interval."""
        return bool(self.pixel_covered(y).all())

    def size(self) -> float:
        """Mean per-pixel width, inverted pixels counted as width 0."""
        d = self.hi - self.lo
        np.maximum(d, 0.0, out=d)
        # the sum and the division np.mean makes, in one buffer
        return float(d.sum() / d.size)


# ---------------------------------------------------------------------------
# Interval constructors (regression)
# ---------------------------------------------------------------------------

def cqr_interval(q_lo: float, q_hi: float, adj: float):
    """Interval from quantile estimates widened by ``adj`` on both sides.

    Returns ``Interval(q_lo - adj, q_hi + adj)``, normalized to ``EMPTY_SET``
    when the adjusted endpoints invert. Crossing quantile estimates are
    permitted on input; the normalization keeps the map monotone in ``adj``.
    """
    if not (math.isfinite(q_lo) and math.isfinite(q_hi) and math.isfinite(adj)):
        raise ValueError(f"non-finite interval inputs: ({q_lo}, {q_hi}, {adj})")
    lo = q_lo - adj
    hi = q_hi + adj
    if lo > hi:
        return EMPTY_SET
    return Interval(lo, hi)


def cqr_score(q_lo: float, q_hi: float, y: float) -> float:
    """Signed distance of ``y`` to the nearer quantile endpoint.

    Negative inside [q_lo, q_hi], positive outside; max(q_lo - y, y - q_hi).
    """
    return max(q_lo - y, y - q_hi)


def quantile_scale_interval(model, x, theta: float):
    """Interval built by re-querying the model at a tuned miscoverage level.

    The calibration parameter lives on the quantile scale: the effective raw
    miscoverage is tau = -theta with theta in [-1, 0], so raising theta
    shrinks tau and widens the interval. tau is clipped into [1e-12, 1].
    """
    tau = -theta
    if tau > 1.0:
        tau = 1.0
    if tau < 1e-12:
        tau = 1e-12
    lo = model.predict(x, tau / 2.0)
    hi = model.predict(x, 1.0 - tau / 2.0)
    if math.isnan(lo) or math.isnan(hi):
        raise RuntimeError("model produced non-finite quantile output")
    if lo > hi:
        return EMPTY_SET
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Image constructors and uncertainty heuristics
# ---------------------------------------------------------------------------

def image_interval(pred: np.ndarray, l_map: np.ndarray, u_map: np.ndarray,
                   lam: float) -> IntervalGrid:
    """Per-pixel intervals [pred - lam*l, pred + lam*u] around a predicted grid.

    The grid holds two fresh float arrays, built here, as its bounds.
    """
    pred = np.asarray(pred, dtype=float)
    l_map = np.asarray(l_map, dtype=float)
    u_map = np.asarray(u_map, dtype=float)
    if pred.shape != l_map.shape or pred.shape != u_map.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.shape}, l {l_map.shape}, u {u_map.shape}")
    # a map holding NaN has a NaN minimum, and NaN < 0 is False: it passes,
    # as under np.any(map < 0)
    if pred.size and (l_map.min() < 0 or u_map.min() < 0):
        raise ValueError("uncertainty maps must be nonnegative")
    # each bound is built in the buffer of its product
    lo = np.multiply(l_map, lam)
    np.subtract(pred, lo, out=lo)
    hi = np.multiply(u_map, lam)
    np.add(pred, hi, out=hi)
    return IntervalGrid(lo, hi)


class ConstantHeuristic:
    """Unit uncertainty in both directions for every pixel."""

    def __init__(self, value: float = 1.0):
        # False for a NaN too
        if not 0 <= value < math.inf:
            raise ValueError("constant heuristic value must be finite and "
                             f"nonnegative, got {value}")
        self.value = value

    def maps(self, shape):
        m = np.full(shape, self.value, dtype=float)
        return m, m.copy()

    def update(self, pred: np.ndarray, y: np.ndarray) -> None:
        pass


class RunningResidualHeuristic:
    """Per-pixel exponentially weighted mean of |pred - y| as a symmetric
    uncertainty estimate. Stands in for a learned residual model; the risk
    guarantee does not depend on its accuracy."""

    def __init__(self, decay: float = 0.1):
        if not 0 < decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        self.decay = decay
        self._mean = None

    def maps(self, shape):
        if self._mean is None:
            m = np.ones(shape, dtype=float)
        else:
            m = self._mean
        return m.copy(), m.copy()

    def update(self, pred: np.ndarray, y: np.ndarray) -> None:
        resid = np.abs(np.asarray(pred, dtype=float) - np.asarray(y, dtype=float))
        if self._mean is None:
            self._mean = resid
        else:
            self._mean = (1.0 - self.decay) * self._mean + self.decay * resid


class PreviousResidualsHeuristic:
    """Direction-aware uncertainty from the last ``window`` residual frames.

    Each frame contributes clamped residuals r+ = max(pred - y, 0) and
    r- = max(y - pred, 0); the lower/upper maps are their window means.
    An empty window yields zero maps (point intervals until data arrives).
    """

    def __init__(self, window: int = 5):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        # one (2, h, w) frame per step: r+ above r-
        self._frames = deque(maxlen=window)

    def maps(self, shape):
        if not self._frames:
            z = np.zeros(shape, dtype=float)
            return z, z.copy()
        mean = _window_mean(self._frames)
        return mean[0], mean[1]

    def update(self, pred: np.ndarray, y: np.ndarray) -> None:
        pred = np.asarray(pred, dtype=float)
        frame = np.empty((2, *pred.shape))
        resid = np.subtract(pred, np.asarray(y, dtype=float), out=frame[0])
        np.negative(resid, out=frame[1])
        np.maximum(frame, 0.0, out=frame)
        self._frames.append(frame)


def _window_mean(frames) -> np.ndarray:
    """The bits of ``np.mean(frames, axis=0)`` without stacking the frames:
    a fresh sum of the frames, oldest to newest, divided by their count.
    The sum starts as ``0.0 + first frame``, as the reduction's does, so a
    -0.0 pixel reads back as 0.0."""
    acc = frames[0] + 0.0
    for frame in islice(frames, 1, None):
        acc += frame
    acc /= len(frames)
    return acc


# ---------------------------------------------------------------------------
# Constructor adapters wired into the control loop
# ---------------------------------------------------------------------------
#
# A constructor object exposes:
#   build(x, adj, model)   -> prediction set for the current step
#   score(x, y, model)     -> raw-model conformity score, or None if the
#                             constructor has no natural score (adaptive
#                             stretching requires one)
#   observe(x, y, model)   -> post-reveal bookkeeping (heuristic windows)

class CqrConstructor:
    """Quantile-pair interval widened on the value scale.

    ``build`` keeps the ``x`` it was called for and the two quantiles it
    took. ``score`` for that same ``x`` object uses them, as the loop calls
    it within the step, before the model learns; ``score`` and ``observe``
    drop them. A ``score`` for any other ``x``, or after ``observe``,
    predicts again.
    """

    scored = True

    def __init__(self, tau_lo: float = 0.05, tau_hi: float = 0.95):
        if not (0 < tau_lo < tau_hi < 1):
            raise ValueError("need 0 < tau_lo < tau_hi < 1")
        self.tau_lo = tau_lo
        self.tau_hi = tau_hi
        self._built = None  # (x, q_lo, q_hi) of the last build

    def build(self, x, adj, model):
        q_lo = model.predict(x, self.tau_lo)
        q_hi = model.predict(x, self.tau_hi)
        if math.isnan(q_lo) or math.isnan(q_hi):
            raise RuntimeError("model produced non-finite quantile output")
        self._built = (x, q_lo, q_hi)
        return cqr_interval(q_lo, q_hi, adj)

    def score(self, x, y, model):
        built = self._built
        if built is not None and built[0] is x:
            self._built = None
            return cqr_score(built[1], built[2], y)
        return cqr_score(model.predict(x, self.tau_lo),
                         model.predict(x, self.tau_hi), y)

    def observe(self, x, y, model):
        self._built = None


class QuantileScaleConstructor:
    """Interval built by querying the model at the tuned miscoverage level."""

    scored = False

    def build(self, x, adj, model):
        # adj is the stretched calibration parameter; tau = -adj.
        return quantile_scale_interval(model, x, adj)

    def score(self, x, y, model):
        return None

    def observe(self, x, y, model):
        pass


class ImageIntervalConstructor:
    """Per-pixel intervals around a predicted grid, scaled by the calibration
    adjustment, with a pluggable uncertainty heuristic.

    The stream is expected to supply the predicted grid as the feature ``x``
    (the stand-in for a base image model's output).
    """

    scored = False

    def __init__(self, heuristic=None):
        self.heuristic = heuristic if heuristic is not None else ConstantHeuristic()

    def build(self, x, adj, model):
        pred = np.asarray(x, dtype=float)
        l_map, u_map = self.heuristic.maps(pred.shape)
        return image_interval(pred, l_map, u_map, adj)

    def score(self, x, y, model):
        return None

    def observe(self, x, y, model):
        self.heuristic.update(np.asarray(x, dtype=float), y)
