"""The guarantee as a property: an adaptive adversary against every
controller shape.

The adversary sees the announced set and the calibration parameter, and
picks each risk's loss from them. Every loss keeps its declared contract:
at most ``full`` on the full space, at least ``empty`` on the empty set,
within [-b, b] everywhere, with full < r < empty. The certificate checks
then claim:
- the upper lines hold on every run;
- for two-sided control, the lower lines hold for one risk, and for k risks
  on a run with no conflict step (some theta_i > M_i while some
  theta_j < m_j).
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from riskcal import engine
from riskcal.engine import (_STOP, MultiRiskSpec, RiskSpec,
                            check_lower_theta_bound, check_recursion,
                            check_two_sided_risk_bound,
                            check_upper_risk_bound, check_upper_theta_bound,
                            control_update, run_stream)
from riskcal.models import ConstantModel
from riskcal.multirisk import run_multi_stream
from riskcal.sets import EMPTY_SET, FULL_SPACE, CqrConstructor
from riskcal.stretching import Stretch

_POLICIES = ("const", "chase", "narrow", "wide", "noise")


class _Adversary:
    """An adaptive stream whose ``reveal`` fixes every risk's loss for the
    step from the announced set and the parameter before the step. It keeps
    its own copy of the parameter by applying the controller's update to
    the losses it chose."""

    def __init__(self, n, spec, risks, seed):
        self.n, self.t = n, 0
        self.risks = risks
        self.update = control_update(spec)
        self.theta = spec.risks.theta_init
        self.losses = ()
        self.rng = np.random.default_rng(seed)
        self.x = np.zeros(1)

    def next_x(self):
        if self.t >= self.n:
            return _STOP
        return self.x

    def _loss(self, risk, theta_i, s):
        rng, b = self.rng, risk["b"]
        if s is FULL_SPACE:
            return risk["full"] if rng.random() < 0.5 else float(
                rng.uniform(-b, risk["full"]))
        if s is EMPTY_SET:
            return risk["empty"] if rng.random() < 0.5 else float(
                rng.uniform(risk["empty"], b))
        policy = risk["policy"]
        if policy == "const":
            return risk["value"]
        if policy == "chase":  # pulls theta_i toward its center
            return b if theta_i < risk["center"] else -b
        if policy == "narrow":  # high loss on narrow sets, as miscoverage
            return b if s.size() < risk["width"] else -b
        if policy == "wide":
            return -b if s.size() < risk["width"] else b
        return float(rng.uniform(-b, b))

    def reveal(self, s):
        self.losses = tuple(self._loss(risk, th, s)
                            for risk, th in zip(self.risks, self.theta))
        self.theta = tuple(s(self.t, th, loss) for s, th, loss
                           in zip(self.update, self.theta, self.losses))
        self.t += 1
        return 0.0

    def loss_fn(self, i):
        return lambda y, s: self.losses[i]


@st.composite
def _risk(draw):
    b = draw(st.sampled_from([0.5, 1.0, 2.0]))
    full, r, empty = (b * v / 4 for v in sorted(draw(st.lists(
        st.integers(-4, 4), min_size=3, max_size=3, unique=True))))
    gamma = draw(st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    B = b * draw(st.sampled_from([1.0, 1.5]))
    m = draw(st.sampled_from([-3.0, -1.0, 0.0, 0.5]))
    M = m + draw(st.sampled_from([0.25, 1.0, 4.0, 20.0]))
    # theta_init inside [m - 2 gamma B, M + 2 gamma B]: the theta lines
    # check theta_pre of the first step too
    lo, hi = m - 2.0 * gamma * B, M + 2.0 * gamma * B
    theta_init = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return {"b": b, "full": full, "r": r, "empty": empty, "gamma": gamma,
            "B": B, "m": m, "M": M, "theta_init": theta_init,
            "policy": draw(st.sampled_from(_POLICIES)),
            "value": b * draw(st.integers(-4, 4)) / 4,
            "center": draw(st.floats(m - 1.0, M + 1.0)),
            "width": draw(st.sampled_from([0.5, 2.0, 5.0]))}


@st.composite
def _cases(draw):
    k = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["risk_spec", "multi"])) if k == 1 \
        else "multi"
    stretches = ["none", "exponential", "exp_linear_zone"]
    if k == 1:
        stretches.append("score_adaptive")
    return {"risks": [draw(_risk()) for _ in range(k)], "form": form,
            "two_sided": form == "risk_spec" or draw(st.booleans()),
            "aggregation": draw(st.sampled_from(["mean", "max"])),
            "stretch": draw(st.sampled_from(stretches)),
            "steps": draw(st.integers(1, 200)),
            "seed": draw(st.integers(0, 2**16))}


def _spec(case):
    risks = case["risks"]
    fields = {name: tuple(risk[name] for risk in risks)
              for name in ("r", "gamma", "m", "M", "B", "theta_init")}
    if case["form"] == "risk_spec":
        return RiskSpec(**{name: v[0] for name, v in fields.items()})
    return MultiRiskSpec(**fields, aggregation=case["aggregation"],
                         two_sided=case["two_sided"])


def _stretch(kind):
    if kind == "score_adaptive":
        return Stretch(kind, beta_score=0.1, beta_low=-1.0, beta_high=1.0)
    return Stretch(kind)


def _run(case):
    spec = _spec(case)
    adv = _Adversary(case["steps"], spec, case["risks"], case["seed"])
    model = ConstantModel({0.05: -1.0, 0.95: 1.0})
    stretch = _stretch(case["stretch"])
    if isinstance(spec, RiskSpec):
        trace = run_stream(adv, model, CqrConstructor(), adv.loss_fn(0),
                           spec, stretch)
    else:
        trace = run_multi_stream(
            adv, model, CqrConstructor(),
            [adv.loss_fn(i) for i in range(spec.k)], spec, stretch)
    return spec, adv, trace


def _conflict_steps(trace, spec) -> int:
    s = spec.risks
    pre = trace.theta_pre.reshape(len(trace), -1)
    return int(np.sum(np.any(pre > np.asarray(s.M), axis=1)
                      & np.any(pre < np.asarray(s.m), axis=1)))


# Two risks driven below their m together: the empty set lifts both, and
# the second's M is far enough that no step is a conflict step.
_FLOORS = {"risks": [
    {"b": 1.0, "full": 0.0, "r": 0.25, "empty": 1.0, "gamma": 0.2, "B": 1.0,
     "m": -1.0, "M": 1.0, "theta_init": 0.0, "policy": "const",
     "value": -1.0, "center": 0.0, "width": 2.0},
    {"b": 0.5, "full": -0.25, "r": 0.0, "empty": 0.5, "gamma": 0.05,
     "B": 0.75, "m": 0.0, "M": 4.0, "theta_init": 0.1, "policy": "const",
     "value": -0.5, "center": 0.0, "width": 0.5}],
    "form": "multi", "two_sided": True, "aggregation": "max",
    "stretch": "none", "steps": 200, "seed": 0}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(case=_cases())
@example(case=_FLOORS)
def test_certificate_lines_hold_against_an_adaptive_adversary(case):
    spec, adv, trace = _run(case)
    assert len(trace) == case["steps"]
    # the adversary chose its losses from the loop's own parameter
    np.testing.assert_array_equal(
        np.reshape(trace.theta_post[-1], -1), np.asarray(adv.theta))
    assert check_recursion(trace, control_update(spec))[0]

    assert check_upper_theta_bound(trace, spec)[0]
    assert check_upper_risk_bound(trace, spec)[0]
    if not spec.risks.two_sided:
        return
    conflicts = _conflict_steps(trace, spec)
    # the certificate's chunked count agrees with this whole-column one
    assert engine._walk(trace, spec).conflicts == conflicts
    if spec.risks.k == 1:
        assert conflicts == 0
    if conflicts == 0:
        assert check_lower_theta_bound(trace, spec)[0]
        assert check_two_sided_risk_bound(trace, spec)[0]


def test_floors_example_reaches_the_floor():
    spec, _, trace = _run(_FLOORS)
    assert _conflict_steps(trace, spec) == 0
    # the first risk sits below its m at some step, the lower line binds
    assert np.min(trace.theta_pre[:, 0]) < -1.0
    assert check_lower_theta_bound(trace, spec)[0]


def test_theta_init_above_the_ceiling_fails_on_any_data():
    # the theta lines include the first step's theta_pre, so a start above
    # M + 2 gamma B fails them whatever the losses
    case = {**_FLOORS, "risks": [{**_FLOORS["risks"][0], "theta_init": 2.0,
                                  "policy": "noise"}],
            "form": "risk_spec"}
    spec, _, trace = _run(case)
    ok, viol = check_upper_theta_bound(trace, spec)
    assert not ok and math.isclose(viol, 2.0 - 1.4)
