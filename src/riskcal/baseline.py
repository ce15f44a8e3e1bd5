"""Window-quantile baseline: tune an effective miscoverage level against the
empirical quantile of a rolling conformity-score window.

This is the classic adaptive-conformal recipe restated as a set constructor:
the set at time t contains every candidate whose score is at most the
(1 - alpha_t) empirical quantile of the n most recent scores, and alpha_t
itself is nudged by gamma * (alpha - err_t), the engine's recursion with the
sign turned (a larger alpha_t means a smaller set). It runs on the engine's
loop with its own constructor and update function. It controls coverage only
(the 0-1 loss); the main engine exists because this recipe does not
generalize to other losses.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque

import numpy as np

from .engine import RiskSpec, StreamTrace, _run
from .losses import BinaryLossFn
from .sets import FULL_SPACE, cqr_interval, cqr_score


def _rank(level: float, n: int, largest: bool):
    """0-based position, in ascending order of n scores, of the
    ceil(level * (n+1))-th smallest (``largest``: largest) score; None when
    that rank exceeds n, which means the full space. A rank below 1 is
    clipped to 1."""
    k = math.ceil(level * (n + 1))
    if k > n:
        return None
    if k < 1:
        k = 1
    return (n - k) if largest else (k - 1)


def empirical_quantile(scores, level: float, largest: bool = False) -> float:
    """The ceil(level * (n+1))-th smallest of a sequence of scores.

    The index is clipped below at 1; when it exceeds the number of scores
    the +inf sentinel is returned (construct the full space). ``largest=True``
    selects the k-th *largest* element instead, the literal reading of the
    textual rule this implements; the default smallest-index convention is
    the one standard conformal practice uses.
    """
    n = len(scores)
    if n == 0:
        raise ValueError("empty score window")
    idx = _rank(level, n, largest)
    if idx is None:
        return math.inf
    return float(np.partition(np.asarray(scores, dtype=float), idx)[idx])


class WindowQuantileConstructor:
    """Sets from the (1 - alpha_t) empirical quantile of the recent scores.

    The parameter the loop hands to ``build`` is alpha_t. The interval is the
    CQR interval of the model's two quantiles widened by that window
    quantile. The first ``warmup`` steps announce the full space while the
    window fills; every step's score enters the window (evicting the oldest
    at capacity) once its label is observed. ``window`` holds the scores
    oldest first; a sorted copy beside it, which only ``observe`` keeps in
    step, lets ``build`` read the order statistic by index. A NaN score has
    no place in that order and is rejected.
    """

    scored = False

    def __init__(self, window_size: int = 500, tau_lo: float = 0.05,
                 tau_hi: float = 0.95, warmup: int = 10,
                 largest: bool = False):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.window = deque(maxlen=window_size)
        self._sorted = []
        self.tau_lo = tau_lo
        self.tau_hi = tau_hi
        self.warmup = warmup
        self.largest = largest
        self._t = 0
        self._q = (math.nan, math.nan)

    def build(self, x, alpha_t, model):
        q_lo = model.predict(x, self.tau_lo)
        q_hi = model.predict(x, self.tau_hi)
        self._q = (q_lo, q_hi)
        if self._t < self.warmup:
            return FULL_SPACE
        if math.isnan(q_lo) or math.isnan(q_hi):
            raise RuntimeError("model produced non-finite quantile output")
        ordered = self._sorted
        if not ordered:
            return FULL_SPACE
        idx = _rank(1.0 - alpha_t, len(ordered), self.largest)
        if idx is None:
            return FULL_SPACE
        q = ordered[idx]
        return FULL_SPACE if math.isinf(q) else cqr_interval(q_lo, q_hi, q)

    def score(self, x, y, model):
        return None

    def observe(self, x, y, model):
        q_lo, q_hi = self._q
        s = cqr_score(q_lo, q_hi, y)
        if s != s:
            raise ValueError(
                f"NaN conformity score at step {self._t + 1}: the window "
                "quantile cannot order it")
        window, ordered = self.window, self._sorted
        if len(window) == window.maxlen:
            del ordered[bisect_left(ordered, window[0])]
        window.append(s)
        insort(ordered, s)
        self._t += 1


def aci_update(gamma: float, alpha: float, warmup: int):
    """The baseline's step alpha_t += gamma * (alpha - err_t), as the
    1-tuple of step functions ``(t, alpha_t, err_t) -> alpha_t`` the loop
    applies (see ``engine.control_update``).

    alpha_t stays frozen for the first ``warmup`` steps, which announce the
    full space rather than a constructed set. The loop passes an int ``t``;
    the checks (``engine._walk``) pass a chunk's column of step indices, so
    the freeze multiplies the step by ``t >= warmup`` (exactly 0 or 1)
    instead of branching.
    """
    def step(t, theta, err):
        return theta + gamma * (alpha - err) * (t >= warmup)

    return (step,)


def aci_spec(gamma: float, alpha: float) -> RiskSpec:
    """The baseline's controller: target alpha, step gamma, no safeguards,
    alpha_0 = alpha. Building it validates gamma."""
    return RiskSpec(r=alpha, gamma=gamma, m=-math.inf, M=math.inf,
                    theta_init=alpha)


def run_aci_stream(stream, model, gamma: float, alpha: float,
                   window_size: int = 500, tau_lo: float = 0.05,
                   tau_hi: float = 0.95, warmup: int = 10,
                   largest: bool = False,
                   n_steps: int | None = None) -> StreamTrace:
    """Run the baseline over a labeled stream.

    This is the engine's control loop with a ``WindowQuantileConstructor``,
    the 0-1 loss, no safeguards and ``aci_update``. The first ``warmup``
    steps announce the full space while the window fills; they do not move
    alpha_t (no real set was constructed) and are conventionally excluded
    from reports. The trace's theta columns carry alpha_t, the baseline's
    calibration parameter. ``stream`` takes the same forms as in
    ``engine.run_stream``.
    """
    spec = aci_spec(gamma, alpha)
    constructor = WindowQuantileConstructor(window_size, tau_lo, tau_hi,
                                            warmup, largest)
    return _run(stream, model, constructor, (BinaryLossFn(),), spec,
                aci_update(gamma, alpha, warmup), None, n_steps)
