"""Post-hoc evaluation of calibration traces.

All functions here are pure and operate on completed coverage sequences, so
they can be recomputed from exported traces. The streak metric reports NaN
(never 0) when a sequence has no miscoverage streaks, so that averaging
across trials cannot silently deflate it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np


def coverage(covered) -> float:
    """Fraction of covered steps."""
    c = np.asarray(covered, dtype=bool)
    if c.size == 0:
        raise ValueError("empty coverage sequence")
    return float(c.mean())


def miscoverage_streaks(covered) -> list[int]:
    """Lengths of maximal runs of consecutive miscoverage, in order.

    A trailing run truncated by the end of the sequence still counts with
    its truncated length.
    """
    c = np.asarray(covered, dtype=bool)
    if c.size == 0:
        raise ValueError("empty coverage sequence")
    # a run starts where a miss follows a cover and ends where a cover
    # follows a miss; the padding closes the runs at both ends
    edges = np.flatnonzero(np.diff(np.concatenate(([True], c, [True]))))
    return (edges[1::2] - edges[::2]).tolist()


def msl(covered) -> float:
    """Mean miscoverage streak length; NaN when no streak exists."""
    streaks = miscoverage_streaks(covered)
    if not streaks:
        return math.nan
    return float(np.mean(streaks))


def mc_risk(covered) -> float:
    """Mean of the miscoverage-counter sequence implied by coverage flags.

    A run of L misses contributes 1 + 2 + ... + L; the sums are exact
    integers.
    """
    runs = np.asarray(miscoverage_streaks(covered), dtype=np.int64)
    total = int(np.sum(runs * (runs + 1) // 2))
    return total / len(covered)


def delta_coverage(covered, groups, alpha: float) -> float:
    """Mean absolute deviation of per-group coverage from 1 - alpha.

    Groups are categorical labels aligned with the coverage flags; only
    groups that actually occur contribute. Reported here on the raw 0-1
    scale (the experiment report also carries the 0-100 scaling).
    """
    c = np.asarray(covered, dtype=bool)
    g = np.asarray(groups)
    if c.size == 0:
        raise ValueError("empty coverage sequence")
    if g.shape != c.shape:
        raise ValueError("groups must align with coverage flags")
    target = 1.0 - alpha
    # _levels keeps one NaN level, which ``g == nan`` would not select
    devs = [abs(float(c[np.isnan(g) if v != v else g == v].mean()) - target)
            for v in _levels(g)]
    return float(np.mean(devs))


# numpy 2 loads numpy.ma (about 10 ms) inside np.unique, which np.quantile's
# linear method also calls; the two helpers below give the same values from
# a sort or a partition, so that no run pays for the import.

def _levels(g: np.ndarray) -> np.ndarray:
    """The distinct values of ``g`` in ascending order, every NaN as one:
    the values of ``np.unique(g)``, bit for bit for integer labels. (For
    float labels np.unique may keep either sign of zero; both select the
    same group.)"""
    s = np.sort(g, axis=None)
    first = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    if s.dtype.kind == "f":
        first[1:] &= ~np.isnan(s[:-1])  # NaNs sort last; keep the first
    return s[first]


def _partitioned_quantile(arr: np.ndarray, q: float) -> float:
    """``np.quantile(arr, q)`` (the linear method) of a 1-D float array,
    bit for bit: the same partition, the same neighbours, and numpy's
    two-branch interpolation ``_lerp``. ``arr`` itself is partitioned in
    place, where numpy partitions a copy."""
    n = arr.size
    virtual = (n - 1) * q
    if virtual >= n - 1:  # at or past the last element
        prev = nxt = -1
    else:
        prev = math.floor(virtual)
        nxt = prev + 1
    arr.partition(sorted({0, -1, prev, nxt}))
    if arr[-1] != arr[-1]:  # a NaN sorts last and makes the result NaN
        return float(arr[-1])
    a, b, t = float(arr[prev]), float(arr[nxt]), virtual - prev
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


@dataclass
class EvalReport:
    """Summary of one trace over an evaluation window."""

    coverage: float
    mc_risk: float
    msl: float
    delta_coverage: float
    mean_loss: float
    mean_length: float
    length_quantiles: dict = field(default_factory=dict)
    window: tuple = (1, 0)
    n_steps: int = 0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["delta_coverage_scaled"] = self.delta_coverage * 100.0
        d["window"] = list(self.window)
        return d


def evaluate(trace, window: tuple | None = None,
             alpha: float = 0.1) -> EvalReport:
    """Evaluate a trace over a window of 1-based step indices (inclusive).

    The window is a report parameter, not a property of the run; it defaults
    to the whole trace. Interval sizes of full-space steps are infinite and
    excluded from the finite length quantiles.
    """
    n = len(trace.covered)
    if window is None:
        window = (1, n)
    start, end = window
    if not (1 <= start <= end <= n):
        raise ValueError(f"window {window} outside trace of length {n}")
    sl = slice(start - 1, end)
    cov = trace.covered[sl]
    sizes = trace.size[sl]
    losses = trace.loss[sl]

    group = getattr(trace, "group", None)
    if group is not None and np.any(group[sl] >= 0):
        dc = delta_coverage(cov, group[sl], alpha)
    else:
        dc = math.nan

    finite = np.isfinite(sizes)
    if finite.any():
        # one copy of the finite sizes at a time: each level partitions a
        # fresh one, in the trace's order, as np.quantile partitions its own
        mean_len = float(sizes[finite].mean())
        qs = {q: _partitioned_quantile(sizes[finite], q)
              for q in (0.1, 0.5, 0.9)}
    else:
        qs = {}
        mean_len = math.nan

    mean_loss = float(np.mean(losses)) if losses.ndim == 1 \
        else float(np.mean(losses[:, 0]))

    return EvalReport(
        coverage=coverage(cov),
        mc_risk=mc_risk(cov),
        msl=msl(cov),
        delta_coverage=dc,
        mean_loss=mean_loss,
        mean_length=mean_len,
        length_quantiles=qs,
        window=(start, end),
        n_steps=end - start + 1,
    )
