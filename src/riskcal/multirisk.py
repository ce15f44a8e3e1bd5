"""Simultaneous control of several risks with a vector calibration parameter.

Each risk gets its own coordinate, target, step size and safeguards; the
coordinates are updated independently and then aggregated (mean or max of
the stretched values) into the single scalar the set constructor consumes.
The full-space safeguard fires when *any* coordinate exceeds its upper
threshold, which is what keeps every individual risk below target; the
empty-set safeguard (any coordinate below its lower threshold) is optional
and, when declared, tightens the guarantee to two-sided convergence.
When both safeguards fire at once the full space wins: conservatism keeps
the one-sided guarantee intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sets import EMPTY_SET, FULL_SPACE
from .stretching import Stretch


def _as_tuple(v, k: int, name: str):
    if np.isscalar(v):
        return (float(v),) * k
    t = tuple(float(x) for x in v)
    if len(t) != k:
        raise ValueError(f"{name} has length {len(t)}, expected {k}")
    return t


@dataclass(frozen=True)
class MultiRiskSpec:
    """Per-risk targets, step sizes, bounds and safeguards for k risks."""

    r: tuple
    gamma: tuple
    m: tuple
    M: tuple
    B: tuple
    theta_init: tuple = ()
    aggregation: str = "max"
    two_sided: bool = False

    def __post_init__(self):
        k = len(self.r)
        if k < 1:
            raise ValueError("need at least one risk")
        object.__setattr__(self, "r", _as_tuple(self.r, k, "r"))
        object.__setattr__(self, "gamma", _as_tuple(self.gamma, k, "gamma"))
        object.__setattr__(self, "m", _as_tuple(self.m, k, "m"))
        object.__setattr__(self, "M", _as_tuple(self.M, k, "M"))
        object.__setattr__(self, "B", _as_tuple(self.B, k, "B"))
        theta0 = self.theta_init if self.theta_init else (0.0,) * k
        object.__setattr__(self, "theta_init", _as_tuple(theta0, k, "theta_init"))
        for i in range(k):
            if not self.gamma[i] > 0:
                raise ValueError(f"gamma[{i}] must be > 0")
            if not self.m[i] < self.M[i]:
                raise ValueError(f"need m[{i}] < M[{i}]")
            if not self.B[i] > 0:
                raise ValueError(f"B[{i}] must be > 0")
        if self.aggregation not in ("mean", "max"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")

    @property
    def k(self) -> int:
        return len(self.r)


def update_vector(theta: np.ndarray, losses, spec: MultiRiskSpec) -> np.ndarray:
    """Coordinate-wise control step: theta_i += gamma_i * (loss_i - r_i)."""
    theta = np.asarray(theta, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if theta.shape != (spec.k,) or losses.shape != (spec.k,):
        raise ValueError(
            f"expected {spec.k} coordinates, got theta {theta.shape}, "
            f"losses {losses.shape}")
    B = np.asarray(spec.B)
    if not np.all((-B <= losses) & (losses <= B)):
        raise ValueError(f"loss vector {losses} escapes declared bounds {spec.B}")
    return theta + np.asarray(spec.gamma) * (losses - np.asarray(spec.r))


def aggregate(theta: np.ndarray, stretch: Stretch, spec: MultiRiskSpec) -> float:
    """Collapse the stretched coordinates into the constructor's scalar."""
    vals = [stretch.apply(float(t)) for t in np.asarray(theta, dtype=float)]
    if spec.aggregation == "mean":
        return float(np.mean(vals))
    return float(max(vals))


def upper_deviation_bound(spec: MultiRiskSpec, i: int, T: int) -> float:
    """Upper-side slack for risk i after T steps: D_i / T with
    D_i = (M_i + 2*gamma_i*B_i - theta_init_i) / gamma_i."""
    if T < 1:
        raise ValueError("T must be >= 1")
    d = (spec.M[i] + 2.0 * spec.gamma[i] * spec.B[i] - spec.theta_init[i]) \
        / spec.gamma[i]
    return d / T


def two_sided_deviation_bound(spec: MultiRiskSpec, i: int, T: int) -> float:
    """Two-sided deviation bound for risk i after T steps."""
    if T < 1:
        raise ValueError("T must be >= 1")
    m_lo = spec.m[i] - 2.0 * spec.gamma[i] * spec.B[i]
    m_hi = spec.M[i] + 2.0 * spec.gamma[i] * spec.B[i]
    t0 = spec.theta_init[i]
    return max(t0 - m_lo, m_hi - t0) / (spec.gamma[i] * T)


@dataclass
class MultiTrace:
    """Per-step record of a k-risk run; loss and theta arrays are (T, k)."""

    loss: np.ndarray
    theta_pre: np.ndarray
    theta_post: np.ndarray
    covered: np.ndarray
    size: np.ndarray
    adj: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.covered)


def run_multi_stream(stream, model, constructor, loss_fns, spec: MultiRiskSpec,
                     stretch: Stretch | None = None,
                     n_steps: int | None = None) -> MultiTrace:
    """Run the vector control loop over a labeled stream.

    ``loss_fns`` is one bounded loss per risk; all are evaluated on the same
    announced set each step. Step ordering matches the scalar loop.
    """
    if stretch is None:
        stretch = Stretch()
    if len(loss_fns) != spec.k:
        raise ValueError(f"got {len(loss_fns)} losses for {spec.k} risks")
    it = iter(stream)

    theta = np.asarray(spec.theta_init, dtype=float)
    m_arr = np.asarray(spec.m)
    M_arr = np.asarray(spec.M)
    B_arr = np.asarray(spec.B)
    neg_B_arr = -B_arr
    gamma_arr = np.asarray(spec.gamma)
    r_arr = np.asarray(spec.r)

    losses = []
    theta_pre = []
    theta_post = []
    covered = []
    sizes = []
    adjs = []

    t = 0
    while n_steps is None or t < n_steps:
        try:
            item = next(it)
        except StopIteration:
            break
        x, y = item[0], item[1]

        if np.any(theta > M_arr):
            pred_set = FULL_SPACE
            adj = math.inf
        elif spec.two_sided and np.any(theta < m_arr):
            pred_set = EMPTY_SET
            adj = -math.inf
        else:
            adj = aggregate(theta, stretch, spec)
            pred_set = constructor.build(x, adj, model)

        l_vec = np.array([fn(y, pred_set) for fn in loss_fns], dtype=float)
        if not np.all((neg_B_arr <= l_vec) & (l_vec <= B_arr)):
            raise ValueError(
                f"loss vector {l_vec} outside declared bounds at step {t + 1}")

        losses.append(l_vec)
        theta_pre.append(theta)
        covered.append(pred_set.contains(y))
        sizes.append(pred_set.size())
        adjs.append(adj)

        theta = theta + gamma_arr * (l_vec - r_arr)
        theta_post.append(theta)
        t += 1

        constructor.observe(x, y, model)
        model.update(x, y)

    return MultiTrace(
        loss=np.asarray(losses, dtype=float).reshape(t, spec.k),
        theta_pre=np.asarray(theta_pre, dtype=float).reshape(t, spec.k),
        theta_post=np.asarray(theta_post, dtype=float).reshape(t, spec.k),
        covered=np.asarray(covered, dtype=bool),
        size=np.asarray(sizes, dtype=float),
        adj=np.asarray(adjs, dtype=float),
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def check_upper_theta_bound(trace: MultiTrace, spec: MultiRiskSpec, eps: float = 1e-9):
    """Every coordinate stays below M_i + 2*gamma_i*B_i at every step."""
    if len(trace) == 0:
        return True, 0.0
    hi = np.asarray(spec.M) + 2.0 * np.asarray(spec.gamma) * np.asarray(spec.B)
    thetas = np.concatenate([trace.theta_pre, trace.theta_post], axis=0)
    viol = max(float(np.max(thetas - hi)), 0.0)
    return viol <= eps, viol


def check_lower_theta_bound(trace: MultiTrace, spec: MultiRiskSpec, eps: float = 1e-9):
    """Every coordinate stays above m_i - 2*gamma_i*B_i (two-sided mode)."""
    if len(trace) == 0:
        return True, 0.0
    lo = np.asarray(spec.m) - 2.0 * np.asarray(spec.gamma) * np.asarray(spec.B)
    thetas = np.concatenate([trace.theta_pre, trace.theta_post], axis=0)
    viol = max(float(np.max(lo - thetas)), 0.0)
    return viol <= eps, viol


def check_upper_risk_bound(trace: MultiTrace, spec: MultiRiskSpec, eps: float = 1e-9):
    """mean loss_i over every prefix <= r_i + D_i/T for every risk i."""
    n = len(trace)
    if n == 0:
        return True, 0.0
    T = np.arange(1, n + 1, dtype=float)[:, None]
    means = np.cumsum(trace.loss, axis=0) / T
    worst = 0.0
    for i in range(spec.k):
        d = (spec.M[i] + 2.0 * spec.gamma[i] * spec.B[i] - spec.theta_init[i]) \
            / spec.gamma[i]
        slack = spec.r[i] + d / T[:, 0]
        worst = max(worst, float(np.max(means[:, i] - slack)))
    return worst <= eps, max(worst, 0.0)


def check_two_sided_risk_bound(trace: MultiTrace, spec: MultiRiskSpec, eps: float = 1e-9):
    """|mean loss_i - r_i| over every prefix <= the two-sided bound."""
    n = len(trace)
    if n == 0:
        return True, 0.0
    T = np.arange(1, n + 1, dtype=float)[:, None]
    means = np.cumsum(trace.loss, axis=0) / T
    worst = 0.0
    for i in range(spec.k):
        m_lo = spec.m[i] - 2.0 * spec.gamma[i] * spec.B[i]
        m_hi = spec.M[i] + 2.0 * spec.gamma[i] * spec.B[i]
        t0 = spec.theta_init[i]
        bound = max(t0 - m_lo, m_hi - t0) / (spec.gamma[i] * T[:, 0])
        worst = max(worst, float(np.max(np.abs(means[:, i] - spec.r[i]) - bound)))
    return worst <= eps, max(worst, 0.0)
