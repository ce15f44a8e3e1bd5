"""The streaming risk-control loop and its deterministic certificates.

One calibration parameter per risk drives the size of every announced
prediction set. After each label is revealed the parameter moves by
gamma * (loss - target): too much loss widens future sets, too little
shrinks them. Clamping to safeguards (full space above M, empty set below m)
makes the long-run average loss converge to the target for *any* data
sequence, with a finite-sample deviation bound that this module also checks
after the fact.

One loop serves every controller: the scalar controller (``run_stream``) is
its one-risk, two-sided case, the k-risk controller
(``multirisk.run_multi_stream``) its general case, and the window-quantile
baseline (``baseline.run_aci_stream``) the same recursion on alpha with its
own constructor and update function.

Steps within a stream are strictly sequential (single writer); independent
streams may run in parallel with no shared state.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from operator import add, gt, le, lt, sub

import numpy as np

from .sets import EMPTY_SET, FULL_SPACE, Interval
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
    """Per-risk targets, step sizes, bounds and safeguards for k risks.

    Each risk needs a finite gamma_i > 0, m_i < M_i, B_i > 0, a finite
    theta_init_i and a target inside its loss bound, -B_i <= r_i <= B_i.
    ``aggregation`` collapses the stretched coordinates into the one scalar
    the set constructor consumes (mean or max). The empty-set safeguard is
    active only when ``two_sided`` is declared.
    """

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
        # each test is False for a NaN too
        for i, (r, g, m, M, B, t0) in enumerate(zip(
                self.r, self.gamma, self.m, self.M, self.B, self.theta_init)):
            if not 0 < g < math.inf:
                raise ValueError(f"gamma[{i}] must be finite and > 0, got {g}")
            if not -math.inf < t0 < math.inf:
                raise ValueError(f"theta_init[{i}] must be finite, got {t0}")
            if not m < M:
                raise ValueError(f"need m[{i}] < M[{i}], got m={m}, M={M}")
            if not B > 0:
                raise ValueError(f"B[{i}] must be > 0, got {B}")
            if not -B <= r <= B:
                raise ValueError(
                    f"target r[{i}]={r} outside [-B, B]=[{-B}, {B}]")
        if self.aggregation not in ("mean", "max"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")

    @property
    def k(self) -> int:
        return len(self.r)

    @property
    def risks(self) -> "MultiRiskSpec":
        """The per-risk view the loop and the checks read: this spec."""
        return self


@dataclass(frozen=True)
class RiskSpec:
    """Target and safety parameters governing one controlled risk.

    r is the target long-run loss level, gamma the (fixed) step size,
    m < M the safeguard thresholds on theta, B the declared loss bound and
    theta_init the starting parameter. ``risks`` is the spec as the
    one-risk, two-sided MultiRiskSpec it is; building it is the validation.
    """

    r: float
    gamma: float
    m: float
    M: float
    B: float = 1.0
    theta_init: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "risks", MultiRiskSpec(
            r=(self.r,), gamma=(self.gamma,), m=(self.m,), M=(self.M,),
            B=(self.B,), theta_init=(self.theta_init,), two_sided=True))


def control_update(spec):
    """The control step theta_i += gamma_i * (loss_i - r_i) of a RiskSpec or
    a MultiRiskSpec: a tuple of k step functions ``(t, theta_i, loss_i) ->
    theta_i``, one per risk, each with its own gamma_i and r_i.

    The loop applies step i to floats; ``check_recursion`` applies the same
    function to whole trace columns.
    """
    risks = spec.risks
    return tuple(map(_control_step, risks.gamma, risks.r))


def _control_step(g: float, r: float):
    def step(t, theta, loss):
        return theta + g * (loss - r)

    return step


@dataclass
class StreamTrace:
    """Per-step record of one calibration run, array-backed.

    Enough is stored to recompute every metric and every bound certificate
    without re-running the model: the parameter before and after each
    update, the loss, coverage flag, set-size statistic, and (for interval
    sets) the announced endpoints plus the revealed label. ``loss``,
    ``theta_pre`` and ``theta_post`` are 1-D for a RiskSpec run and (T, k)
    for a k-risk run. A one-risk run's columns take 65 bytes per step: 8
    for each float column and for ``group``, 1 for ``covered``. A trace the
    loop records views the typed arrays it filled, which hold at most 1/16
    more.
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


_STOP = object()  # what an adaptive stream's next_x returns at its end

# Steps the loop records in Python lists before it moves them into typed
# arrays. An append to a list is the cheapest record a step can make, but a
# list holds 32 bytes per float (the object and its slot) where an array
# holds 8.
_CHUNK = 4096

# The typecode of each column's typed array, and the dtype of its numpy
# view, in the loop's record order: loss and theta_pre (k values per step),
# covered, size, lo, hi, y and group. array("b") takes no np.bool_, so
# covered goes in through bool, numpy's truth value; array("q") takes no
# float, so a group id that is not an integer is a TypeError.
_COLUMNS = (("d", float), ("d", float), ("b", bool), ("d", float),
            ("d", float), ("d", float), ("d", float), ("q", np.int64))


def _mean(values) -> float:
    return float(np.mean(list(values)))


def _announced(next_x):
    """An adaptive stream's ``next_x`` calls as an iterator that ends at
    ``_STOP``. (``iter(next_x, _STOP)`` would test ``x == _STOP``, which
    raises for an array ``x`` of more than one element.)"""
    while (x := next_x()) is not _STOP:
        yield x


def _loss_error(losses, B, t: int) -> ValueError:
    """The error for the first loss outside its bound at step t (0-based)."""
    k = len(losses)
    i = next(i for i in range(k) if not -B[i] <= losses[i] <= B[i])
    return ValueError(
        f"loss {losses[i]} outside declared bound [-{B[i]}, {B[i]}] "
        f"at step {t + 1}" + (f" (risk {i + 1})" if k > 1 else ""))


def _run(stream, model, constructor, loss_fns, spec, update, stretch,
         n_steps) -> StreamTrace:
    """The control loop behind every entry point.

    ``spec`` (a RiskSpec or a MultiRiskSpec) gives the safeguards, loss
    bounds, starting parameter and aggregation; ``update`` holds one step
    function ``(t, theta_i, loss_i) -> theta_i`` per risk, which maps risk
    i's parameter before step t (0-based) to the one after it (see
    ``control_update``).

    Every per-run choice is made once, before the loop: both stream
    protocols become one iterator, cut at ``n_steps`` without pulling an
    item more; a one-risk run carries theta as a float and advances it with
    its one step, with its safeguards, loss and bound check on bound
    scalars; the ``none`` stretch's identity is not called; and the record
    methods are bound.

    Each step appends its values to one list per column. The loop runs one
    chunk of ``_CHUNK`` steps at a time and then moves each list into its
    column's ``array.array`` (``_COLUMNS``), so a run's peak memory follows
    its finished trace, not the Python objects that build it; a chunk that
    comes up short ends the run. The trace's columns are numpy views of the
    arrays. ``theta_post`` is not recorded: it is the ``theta_pre`` array
    shifted by one step, plus the last theta.
    """
    risks = spec.risks
    k = risks.k
    if len(loss_fns) != k:
        raise ValueError(f"got {len(loss_fns)} losses for {k} risks")
    if len(update) != k:
        raise ValueError(f"got {len(update)} update steps for {k} risks")
    if stretch is None:
        stretch = Stretch()
    adaptive = stretch.is_adaptive
    if adaptive and not getattr(constructor, "scored", False):
        raise ValueError(
            "adaptive stretching needs a constructor with a conformity score")
    if adaptive and k > 1:
        raise ValueError(
            "adaptive stretching needs a single risk: no one loss and target "
            f"drives lambda, got {k} risks")
    # an adaptive stretch's lam lives here as a float, advanced by next_lam;
    # its adjustment theta + lam is the one apply returns
    apply, stretched = stretch.apply, stretch.kind != "none"
    if adaptive:
        next_lam, lam = stretch.next_lam, stretch.lam
        score = constructor.score

    # a plain (x, y[, group]) iterable carries its label in the item; an
    # adaptive stream reveals it after seeing the announced set
    plain = not hasattr(stream, "next_x")
    if plain:
        items = iter(stream)
    else:
        items, reveal = _announced(stream.next_x), stream.reveal
    if n_steps is not None:
        items = islice(items, max(n_steps, 0))

    M = risks.M
    # one-sided control declares no empty-set safeguard
    m = risks.m if risks.two_sided else (-math.inf,) * k
    B = risks.B
    one = k == 1
    theta = risks.theta_init
    if one:
        (M0,), (m0,), (B0,), (loss_fn,), (th,) = M, m, B, loss_fns, theta
        (step,) = update
    aggregate = _mean if risks.aggregation == "mean" else max
    r_first = risks.r[0]
    build, observe = constructor.build, constructor.observe
    learn = model.update
    labels = (float, int, np.floating)

    lists = tuple([] for _ in _COLUMNS)
    arrays = [array(code) for code, _ in _COLUMNS]
    losses_rec, theta_pre, covered, sizes, los, his, ys, groups = lists
    record_loss, record_losses = losses_rec.append, losses_rec.extend
    record_pre, record_pres = theta_pre.append, theta_pre.extend
    record_covered, record_size = covered.append, sizes.append
    record_lo, record_hi = los.append, his.append
    record_y, record_group = ys.append, groups.append

    prev_score = None
    prev_loss = 0.0
    chunk = _CHUNK
    start = 0
    # one pass of the inner loop per chunk of steps: the stream ends where a
    # chunk comes up short, so no step pays a test for the flush
    while True:
        for t, item in enumerate(islice(items, chunk), start):
            if plain:
                # the label stays in this frame until the set is announced
                if len(item) == 3:
                    x, y, group = item
                else:
                    x, y = item
                    group = -1
            else:
                x = item

            if adaptive and prev_score is not None:
                lam = next_lam(lam, prev_score, prev_loss, r_first)

            if one:
                over, under = th > M0, th < m0
            else:
                over, under = any(map(gt, theta, M)), any(map(lt, theta, m))
            # When both safeguards fire the full space wins: conservatism
            # keeps the upper-side guarantee intact.
            if over:
                pred_set = FULL_SPACE
            elif under:
                pred_set = EMPTY_SET
            elif adaptive:
                pred_set = build(x, th + lam, model)
            elif one:
                pred_set = build(x, apply(th) if stretched else th, model)
            else:
                pred_set = build(x, aggregate(map(apply, theta) if stretched
                                              else theta), model)

            if not plain:
                revealed = reveal(pred_set)
                if isinstance(revealed, tuple):
                    y, group = revealed
                else:
                    y, group = revealed, -1

            # |loss_i| <= B_i is False for a NaN loss too
            if one:
                loss = loss_fn(y, pred_set)
                if not -B0 <= loss <= B0:
                    raise _loss_error((loss,), B, t)
                record_loss(loss)
                record_pre(th)
                th = step(t, th, loss)
            else:
                losses = [fn(y, pred_set) for fn in loss_fns]
                if not all(map(le, map(abs, losses), B)):
                    raise _loss_error(losses, B, t)
                record_losses(losses)
                record_pres(theta)
                theta = [s(t, th_i, loss_i)
                         for s, th_i, loss_i in zip(update, theta, losses)]

            record_covered(pred_set.contains(y))
            record_size(pred_set.size())
            if isinstance(pred_set, Interval):
                record_lo(pred_set.lo)
                record_hi(pred_set.hi)
            elif pred_set is FULL_SPACE:
                record_lo(-math.inf)
                record_hi(math.inf)
            else:
                record_lo(math.nan)
                record_hi(math.nan)
            record_y(y if isinstance(y, labels) else math.nan)
            record_group(group)

            if adaptive:
                prev_score = score(x, y, model)
                prev_loss = loss
            observe(x, y, model)
            learn(x, y)
        short = len(covered) < chunk
        # one column at a time, so a list is freed before the next column
        # grows
        for arr, lst in zip(arrays, lists):
            arr.fromlist(list(map(bool, lst)) if lst is covered else lst)
            lst.clear()
        if short:
            break
        start += chunk

    loss_col, pre, covered, sizes, los, his, ys, groups = (
        np.frombuffer(arr, dtype) for arr, (_, dtype) in zip(arrays, _COLUMNS))
    n = len(covered)
    post = np.empty_like(pre)
    if n:
        post[:-k] = pre[k:]
        post[-k:] = (th,) if one else theta
    shape = (n,) if isinstance(spec, RiskSpec) else (n, k)
    return StreamTrace(
        loss=loss_col.reshape(shape), theta_pre=pre.reshape(shape),
        theta_post=post.reshape(shape), covered=covered, size=sizes, lo=los,
        hi=his, y=ys, group=groups)


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
    return _run(stream, model, constructor, (loss_fn,), spec,
                control_update(spec), stretch, n_steps)


# ---------------------------------------------------------------------------
# Bounds and post-hoc certificates. The per-risk bounds and the checks take a
# RiskSpec (one two-sided risk, 1-D trace columns) or a MultiRiskSpec ((T, k)
# columns). A NaN anywhere in a checked column makes the check fail.
# ---------------------------------------------------------------------------

# A check passes when its worst violation is at most this.
_TOLERANCE = 1e-9


def _spans(n: int) -> list:
    """The (start, stop) row spans of at most ``_CHUNK`` rows that cover n
    rows in order: the one chunk walk of ``_walk`` and of the export."""
    return [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]


def _verdict(*sides):
    """Every check's (ok, worst violation), from each chunk's largest excess,
    one list per side checked. A side's violation is its largest excess, NaN
    if any is, clamped at 0 (0.0 with no rows); all must hold, and Python's
    max reports the worst, keeping a first side's NaN over a later one's."""
    viols = [max(float(np.max(np.asarray(side, dtype=float))), 0.0)
             if side else 0.0 for side in sides]
    return all(v <= _TOLERANCE for v in viols), max(viols)


def _envelope(spec) -> tuple:
    """(m_i - 2*gamma_i*B_i for every risk i, M_i + 2*gamma_i*B_i for every
    risk i): the theta lines' bounds, which anchor both deviation bounds."""
    s = spec.risks
    reach = [2.0 * g * b for g, b in zip(s.gamma, s.B)]
    return tuple(map(sub, s.m, reach)), tuple(map(add, s.M, reach))


def risk_bound(spec: RiskSpec, T: int) -> float:
    """Worst-case deviation of the T-step average loss from the target:
    (M - m + 4*gamma*B) / (gamma*T)."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return (spec.M - spec.m + 4.0 * spec.gamma * spec.B) / (spec.gamma * T)


def upper_deviation_bound(spec, i: int, T):
    """Upper-side slack for risk i after T steps: D_i / T with
    D_i = (M_i + 2*gamma_i*B_i - theta_init_i) / gamma_i. ``T`` may be an
    array of horizons."""
    if np.any(np.asarray(T) < 1):
        raise ValueError(f"T must be >= 1, got {T}")
    s = spec.risks
    return (_envelope(spec)[1][i] - s.theta_init[i]) / s.gamma[i] / T


def two_sided_deviation_bound(spec, i: int, T):
    """Two-sided deviation bound for risk i after T steps, anchored at the
    starting parameter: max(theta_init - m', M' - theta_init) / (gamma*T)
    with m' = m - 2*gamma*B and M' = M + 2*gamma*B. ``T`` may be an array of
    horizons."""
    if np.any(np.asarray(T) < 1):
        raise ValueError(f"T must be >= 1, got {T}")
    s, (lo, hi) = spec.risks, _envelope(spec)
    t0 = s.theta_init[i]
    return max(t0 - lo[i], hi[i] - t0) / (s.gamma[i] * T)


def _columns(trace, name: str) -> np.ndarray:
    """A per-risk trace column as a (T, k) array."""
    col = getattr(trace, name)
    return col[:, None] if col.ndim == 1 else col


# Each check's (ok, worst violation) on one trace, None where not checked,
# and the conflict steps; ``theta`` is both theta lines, a one-risk run's one.
_Verdicts = namedtuple("_Verdicts", "upper_theta lower_theta theta upper_risk "
                       "two_sided_risk conflicts recursion")


def _walk(trace, spec=None, update=None) -> _Verdicts:
    """Every certificate verdict on one trace from one walk of its rows in
    ``_spans`` chunks: against ``spec``, both theta lines, both deviation
    bounds on the prefix means of the loss, and the conflict steps (some
    theta_pre_i above M_i and some theta_pre_j below m_j: the full space
    wins, so coordinate j can keep falling and the lower lines need not
    hold); against ``update``, each step's replay and each theta_post's
    chain into the next theta_pre. A pass reads its own chunk and carries
    the running loss sum (so each prefix mean has the bits of one cumsum)
    and the last theta_post. A spec or an update for another risk count
    than the trace's is a ValueError, and so is a loss or theta_post column
    of another shape than theta_pre's."""
    for name in ("theta_post", "loss"):
        shape, want = getattr(trace, name).shape, trace.theta_pre.shape
        if shape != want:
            raise ValueError(f"trace {name} has shape {shape} where "
                             f"theta_pre has {want}")
    pre, post, loss = (_columns(trace, name)
                       for name in ("theta_pre", "theta_post", "loss"))
    k = pre.shape[1]
    if spec is not None and spec.risks.k != k:
        raise ValueError(
            f"got a spec of {spec.risks.k} risks for a trace of {k} risks")
    if update is not None and len(update) != k:
        raise ValueError(f"got {len(update)} update steps for {k} risks")
    if spec is not None:
        lo, hi = map(np.asarray, _envelope(spec))
        r, m, M = (np.asarray(getattr(spec.risks, f)) for f in "rmM")
    # each theta line's chunk maxima, theta_pre's before theta_post's
    above, below = ([], []), ([], [])
    upper, two_sided, replayed, chained = [], [], [], []
    conflicts = 0
    sums = last = None
    for a, b in _spans(len(pre)):
        if spec is not None:
            for j, rows in enumerate((pre[a:b], post[a:b])):
                above[j].append(np.max(rows - hi))
                below[j].append(np.max(lo - rows))
            conflicts += int(np.count_nonzero(np.any(pre[a:b] > M, axis=1)
                                              & np.any(pre[a:b] < m, axis=1)))
            part = loss[a:b]
            if sums is not None:
                # the running sum goes on into the chunk's first row
                part = part.copy()
                part[0] += sums[-1]
            sums = np.cumsum(part, axis=0)
            T = np.arange(a + 1, b + 1, dtype=float)
            means = sums / T[:, None]
            ups, twos = (np.column_stack([bound(spec, i, T) for i in range(k)])
                         for bound in (upper_deviation_bound,
                                       two_sided_deviation_bound))
            upper.append(np.max(means - (r + ups)))
            two_sided.append(np.max(np.abs(means - r) - twos))
        if update is not None:
            t = np.arange(a, b)
            expected = np.column_stack([
                step(t, th, ls)
                for step, th, ls in zip(update, pre[a:b].T, loss[a:b].T)])
            replayed.append(np.max(np.abs(expected - post[a:b])))
            # each theta_post is the next row's theta_pre, across chunks too
            before = (post[a:b - 1] if last is None
                      else np.concatenate([last, post[a:b - 1]]))
            if len(before):
                chained.append(np.max(np.abs(before - pre[b - len(before):b])))
            last = post[b - 1:b]
    if chained and math.isnan(np.max(chained)):
        # a NaN from the chain (inf - inf) is passed over; a NaN from the
        # replay fails the check
        chained = []
    up, down = above[0] + above[1], below[0] + below[1]
    return _Verdicts(*((None,) * 6 if spec is None else (
        _verdict(up), _verdict(down), _verdict(up, down), _verdict(upper),
        _verdict(two_sided), conflicts)),
        None if update is None else _verdict(replayed, chained))


def check_upper_theta_bound(trace: StreamTrace, spec):
    """Every coordinate, before and after each update, stays at or below
    M_i + 2*gamma_i*B_i. Returns (ok, worst_violation); the violation is 0
    when the bound holds."""
    return _walk(trace, spec).upper_theta


def check_lower_theta_bound(trace: StreamTrace, spec):
    """Every coordinate stays at or above m_i - 2*gamma_i*B_i; holds for
    two-sided control of one risk, and with k risks on a run where no step
    has one coordinate above M_i and another below m_j (a conflict step;
    see ``multirisk``)."""
    return _walk(trace, spec).lower_theta


def check_upper_risk_bound(trace: StreamTrace, spec):
    """mean loss_i over every prefix <= r_i + D_i/T for every risk i."""
    return _walk(trace, spec).upper_risk


def check_two_sided_risk_bound(trace: StreamTrace, spec):
    """|mean loss_i - r_i| over every prefix <= the two-sided bound, for
    every risk i; holds where ``check_lower_theta_bound`` does."""
    return _walk(trace, spec).two_sided_risk


def check_recursion(trace: StreamTrace, update):
    """The recorded parameters follow the update the run applied
    (``control_update`` or ``baseline.aci_update``) and chain step to step.
    Step i replays column i, with ``t`` the column of 0-based step indices;
    a step count other than the trace's risk count is a ValueError. Guards
    against tampered or corrupted traces."""
    return _walk(trace, update=update).recursion


def loss_contract_guaranteed(loss_fn, spec: RiskSpec) -> bool:
    """Whether the guarantee's strict precondition L(y, full) < r < L(y, empty)
    holds for this loss and target. A target at or below the full-space loss
    (e.g. r = 0 for a nonnegative loss) leaves the guarantee vacuous; the run
    proceeds but the certificate reports it."""
    return loss_fn.full_space_loss < spec.r < loss_fn.empty_set_loss_min
