"""Stretching functions: monotone maps from the calibration parameter to the
effective set adjustment.

The control loop updates its parameter with a fixed step size, which can be
too slow under abrupt shift. A stretching function reshapes the parameter
scale (e.g. exponentially) so the *adjustment* can move fast while the
update rule itself, and hence the risk guarantee, is untouched. The adaptive
variants carry a clipped additive state ``lam`` that is nudged by the
previous step's conformity score (and, for the error-adaptive kind, by how
far the previous loss sat from the target).

State discipline: ``apply`` never modifies state; ``next_lam`` and
``updated`` never read the calibration parameter. Both facts keep the
fixed-step-size requirement of the risk guarantee visibly intact. The
control loop keeps ``lam`` as a float: it advances it with ``next_lam`` and
announces ``theta + lam``, the sum ``apply`` makes. ``updated`` is the same
step in the form that returns a successor ``Stretch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

STRETCH_KINDS = ("none", "exponential", "exp_linear_zone",
                 "score_adaptive", "error_adaptive")

_ADAPTIVE = ("score_adaptive", "error_adaptive")


def clip(x: float, lo: float, hi: float) -> float:
    """max(min(x, hi), lo), exactly: the same operand for every input, NaN
    and signed zeros included, by the two comparisons min and max make."""
    if hi < x:
        x = hi
    return lo if lo > x else x


@dataclass(frozen=True)
class Stretch:
    """One stretching function plus the internal state of the adaptive kinds.

    beta_score scales the score term, beta_loss the loss-distance exponent,
    and [beta_low, beta_high] is the hard clipping range for ``lam``. The
    range may be infinite (no clip); beta_score, beta_loss and lam are
    finite.
    """

    kind: str = "none"
    beta_score: float = 0.0
    beta_loss: float = 0.0
    beta_low: float = 0.0
    beta_high: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in STRETCH_KINDS:
            raise ValueError(f"unknown stretch kind: {self.kind!r}")
        for name in ("beta_score", "beta_loss", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)}")
        if self.beta_low > 0 or self.beta_high < 0:
            raise ValueError("need beta_low <= 0 <= beta_high")
        if not self.beta_low <= self.lam <= self.beta_high:
            raise ValueError("lam must start inside [beta_low, beta_high]")

    @property
    def is_adaptive(self) -> bool:
        return self.kind in _ADAPTIVE

    def apply(self, theta: float) -> float:
        """Map the calibration parameter to the effective adjustment."""
        kind = self.kind
        if kind == "none":
            return theta
        if kind == "exponential":
            if theta > 0.0:
                return math.exp(theta) - 1.0
            return -math.exp(-theta) + 1.0
        if kind == "exp_linear_zone":
            if theta > 0.1:
                return math.exp(theta) - 1.0
            if theta < -0.1:
                return -math.exp(-theta) + 1.0
            return theta
        # score_adaptive / error_adaptive
        return theta + self.lam

    def next_lam(self, lam: float, score: float, prev_loss: float,
                 r: float) -> float:
        """The ``lam`` that follows ``lam`` given the previous step's score
        and loss.

        Unchanged for the non-adaptive kinds. The score-adaptive kind ignores
        the loss term; the error-adaptive kind amplifies the score by how far
        the previous loss was from the target risk.
        """
        kind = self.kind
        if kind == "score_adaptive":
            step = self.beta_score * score
        elif kind == "error_adaptive":
            step = self.beta_score * score * math.exp(
                self.beta_loss * abs(prev_loss - r))
        else:
            return lam
        lo, hi = self.beta_low, self.beta_high
        lam = clip(lam - step, lo, hi)
        if not lo <= lam <= hi:  # a NaN step
            raise ValueError(
                f"stretch update gave lam={lam}, outside [{lo}, {hi}]")
        return lam

    def updated(self, score: float, prev_loss: float, r: float) -> "Stretch":
        """``next_lam`` as a successor: ``dataclasses.replace`` with the
        advanced ``lam``, so the successor keeps ``type(self)`` and is
        validated like any ``Stretch``; ``self`` itself for the non-adaptive
        kinds."""
        if not self.is_adaptive:
            return self
        return replace(self, lam=self.next_lam(self.lam, score, prev_loss, r))
