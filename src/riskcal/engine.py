"""The streaming risk-control loop and its deterministic certificates.

One scalar calibration parameter theta drives the size of every announced
prediction set. After each label is revealed the parameter moves by
gamma * (loss - target): too much loss widens future sets, too little
shrinks them. Clamping to safeguards (full space above M, empty set below m)
makes the long-run average loss converge to the target for *any* data
sequence, with a finite-sample deviation bound that this module also checks
after the fact.

Steps within a stream are strictly sequential (single writer); independent
streams may run in parallel with no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import EMPTY_SET, FULL_SPACE, Interval
from .stretching import Stretch


@dataclass(frozen=True)
class RiskSpec:
    """Target and safety parameters governing one controlled risk.

    r is the target long-run loss level, gamma the (fixed) step size,
    m < M the safeguard thresholds on theta, B the declared loss bound and
    theta_init the starting parameter.
    """

    r: float
    gamma: float
    m: float
    M: float
    B: float = 1.0
    theta_init: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not self.m < self.M:
            raise ValueError(f"need m < M, got m={self.m}, M={self.M}")
        if not self.B > 0:
            raise ValueError(f"B must be > 0, got {self.B}")
        if not -self.B <= self.r <= self.B:
            raise ValueError(f"target r={self.r} outside [-B, B]=[{-self.B}, {self.B}]")


@dataclass(frozen=True)
class CalibratorState:
    """Mutable-by-replacement state of one calibration stream."""

    theta: float
    t: int = 0
    loss_sum: float = 0.0


def update_theta(state: CalibratorState, loss: float,
                 spec: RiskSpec) -> CalibratorState:
    """One control step: theta += gamma * (loss - r).

    Rejects losses outside [-B, B]; every guarantee depends on the bound, so
    a violation means the loss was misconfigured, not that the data is odd.
    """
    if not (-spec.B <= loss <= spec.B):
        raise ValueError(
            f"loss {loss} outside declared bound [-{spec.B}, {spec.B}]")
    return CalibratorState(
        theta=state.theta + spec.gamma * (loss - spec.r),
        t=state.t + 1,
        loss_sum=state.loss_sum + loss,
    )


def risk_bound(spec: RiskSpec, T: int) -> float:
    """Worst-case deviation of the T-step average loss from the target:
    (M - m + 4*gamma*B) / (gamma*T)."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return (spec.M - spec.m + 4.0 * spec.gamma * spec.B) / (spec.gamma * T)


def prefix_deviation_bound(spec: RiskSpec, T: int) -> float:
    """Sharper deviation bound anchored at the actual starting parameter:
    max(theta_init - m', M' - theta_init) / (T*gamma) with m' = m - 2*gamma*B
    and M' = M + 2*gamma*B."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    m_lo = spec.m - 2.0 * spec.gamma * spec.B
    m_hi = spec.M + 2.0 * spec.gamma * spec.B
    return max(spec.theta_init - m_lo, m_hi - spec.theta_init) / (T * spec.gamma)


def safeguarded_construct(x, state: CalibratorState, model, constructor,
                          spec: RiskSpec, stretch: Stretch | None = None):
    """Build the prediction set for features x, honoring the safeguards.

    Above M the full space is returned, below m the empty set; in between
    the constructor is called with the stretched parameter. The safeguards
    make the construction total and give the loss the leverage the
    convergence argument needs.
    """
    theta = state.theta
    if theta > spec.M:
        return FULL_SPACE
    if theta < spec.m:
        return EMPTY_SET
    adj = stretch.apply(theta) if stretch is not None else theta
    return constructor.build(x, adj, model)


@dataclass
class StreamTrace:
    """Per-step record of one calibration run, array-backed.

    Enough is stored to recompute every metric and every bound certificate
    without re-running the model: the parameter before and after each
    update, the loss, coverage flag, set-size statistic, and (for interval
    runs) the announced endpoints plus the revealed label.
    """

    loss: np.ndarray
    theta_pre: np.ndarray
    theta_post: np.ndarray
    covered: np.ndarray
    size: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    y: np.ndarray
    group: np.ndarray

    def __len__(self) -> int:
        return len(self.loss)

    @property
    def n_steps(self) -> int:
        return len(self.loss)


class _IteratorAdapter:
    """Present a plain (x, y[, group]) iterable through the adaptive protocol."""

    __slots__ = ("_it", "_pending")

    def __init__(self, iterable):
        self._it = iter(iterable)
        self._pending = None

    def next_x(self):
        try:
            item = next(self._it)
        except StopIteration:
            return _STOP
        if len(item) == 3:
            x, y, group = item
        else:
            x, y = item
            group = -1
        self._pending = (y, group)
        return x

    def reveal(self, prediction_set):
        return self._pending


_STOP = object()


def run_stream(stream, model, constructor, loss_fn, spec: RiskSpec,
               stretch: Stretch | None = None,
               n_steps: int | None = None) -> StreamTrace:
    """Run the full control loop over a labeled stream.

    ``stream`` is either an iterable of (x, y) or (x, y, group) tuples, or an
    adaptive object with ``next_x()`` and ``reveal(prediction_set)`` methods
    (the latter returning y or (y, group)); the adaptive form lets an
    adversary pick the label after seeing the announced set, which the
    guarantee explicitly tolerates.

    Step ordering per arrival: update the stretch state from the previous
    step, announce the set, reveal the label, score the loss on the
    *announced* set, update theta, and only then let the model train on the
    new pair. Nothing at step t sees data from step t or later before the
    set is announced.
    """
    if stretch is None:
        stretch = Stretch()
    if stretch.is_adaptive and not getattr(constructor, "scored", False):
        raise ValueError(
            "adaptive stretching needs a constructor with a conformity score")

    adaptive = hasattr(stream, "next_x")
    src = stream if adaptive else _IteratorAdapter(stream)

    r = spec.r
    gamma = spec.gamma
    B = spec.B
    m = spec.m
    M = spec.M

    losses: list[float] = []
    theta_pre: list[float] = []
    theta_post: list[float] = []
    covered: list[bool] = []
    sizes: list[float] = []
    los: list[float] = []
    his: list[float] = []
    ys: list[float] = []
    groups: list[int] = []

    theta = spec.theta_init
    loss_sum = 0.0
    t = 0
    prev_score = None
    prev_loss = 0.0

    while n_steps is None or t < n_steps:
        x = src.next_x()
        if x is _STOP:
            break

        if stretch.is_adaptive and prev_score is not None:
            stretch = stretch.updated(prev_score, prev_loss, r)

        if theta > M:
            pred_set = FULL_SPACE
        elif theta < m:
            pred_set = EMPTY_SET
        else:
            pred_set = constructor.build(x, stretch.apply(theta), model)

        revealed = src.reveal(pred_set)
        if isinstance(revealed, tuple):
            y, group = revealed
        else:
            y, group = revealed, -1

        loss = loss_fn(y, pred_set)
        if not (-B <= loss <= B):
            raise ValueError(
                f"loss {loss} outside declared bound [-{B}, {B}] at step {t + 1}")

        losses.append(loss)
        theta_pre.append(theta)
        covered.append(pred_set.contains(y))
        sizes.append(pred_set.size())
        if isinstance(pred_set, Interval):
            los.append(pred_set.lo)
            his.append(pred_set.hi)
        elif pred_set is FULL_SPACE:
            los.append(-math.inf)
            his.append(math.inf)
        else:
            los.append(math.nan)
            his.append(math.nan)
        ys.append(y if isinstance(y, (int, float, np.floating)) else math.nan)
        groups.append(group)

        theta = theta + gamma * (loss - r)
        theta_post.append(theta)
        loss_sum += loss
        t += 1

        if stretch.is_adaptive:
            prev_score = constructor.score(x, y, model)
            prev_loss = loss
        constructor.observe(x, y, model)
        model.update(x, y)

    return StreamTrace(
        loss=np.asarray(losses, dtype=float),
        theta_pre=np.asarray(theta_pre, dtype=float),
        theta_post=np.asarray(theta_post, dtype=float),
        covered=np.asarray(covered, dtype=bool),
        size=np.asarray(sizes, dtype=float),
        lo=np.asarray(los, dtype=float),
        hi=np.asarray(his, dtype=float),
        y=np.asarray(ys, dtype=float),
        group=np.asarray(groups, dtype=int),
    )


# ---------------------------------------------------------------------------
# Post-hoc certificates
# ---------------------------------------------------------------------------

def check_theta_bound(trace: StreamTrace, spec: RiskSpec, eps: float = 1e-9):
    """Every theta (before and after each update) inside [m-2gB, M+2gB].

    Returns (ok, worst_violation); the violation is 0 when the bound holds.
    """
    lo = spec.m - 2.0 * spec.gamma * spec.B
    hi = spec.M + 2.0 * spec.gamma * spec.B
    if len(trace) == 0:
        return True, 0.0
    thetas = np.concatenate([trace.theta_pre, trace.theta_post])
    viol = max(float(np.max(thetas - hi)), float(np.max(lo - thetas)), 0.0)
    return viol <= eps, viol


def check_prefix_deviation(trace: StreamTrace, spec: RiskSpec, eps: float = 1e-9):
    """|mean loss - r| <= max(theta_1 - m', M' - theta_1)/(T*gamma) for every
    prefix length T. Returns (ok, worst_violation)."""
    n = len(trace)
    if n == 0:
        return True, 0.0
    T = np.arange(1, n + 1, dtype=float)
    dev = np.abs(np.cumsum(trace.loss) / T - spec.r)
    m_lo = spec.m - 2.0 * spec.gamma * spec.B
    m_hi = spec.M + 2.0 * spec.gamma * spec.B
    theta1 = float(trace.theta_pre[0])
    bound = max(theta1 - m_lo, m_hi - theta1) / (T * spec.gamma)
    viol = float(np.max(dev - bound))
    return viol <= eps, max(viol, 0.0)


def check_recursion(trace: StreamTrace, spec: RiskSpec, eps: float = 1e-9):
    """The recorded thetas actually follow theta' = theta + gamma*(loss - r)
    and chain step to step. Guards against tampered or corrupted traces."""
    n = len(trace)
    if n == 0:
        return True, 0.0
    expected = trace.theta_pre + spec.gamma * (trace.loss - spec.r)
    viol = float(np.max(np.abs(expected - trace.theta_post)))
    if n > 1:
        viol = max(viol, float(np.max(np.abs(
            trace.theta_post[:-1] - trace.theta_pre[1:]))))
    return viol <= eps, viol


def loss_contract_guaranteed(loss_fn, spec: RiskSpec) -> bool:
    """Whether the guarantee's strict precondition L(y, full) < r < L(y, empty)
    holds for this loss and target. A target at or below the full-space loss
    (e.g. r = 0 for a nonnegative loss) leaves the guarantee vacuous; the run
    proceeds but the certificate reports it."""
    return loss_fn.full_space_loss < spec.r < loss_fn.empty_set_loss_min
