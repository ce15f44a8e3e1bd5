"""Simultaneous control of several risks with a vector calibration parameter.

Each risk gets its own coordinate, target, step size and safeguards; the
coordinates are updated independently and then aggregated (mean or max of
the stretched values) into the single scalar the set constructor consumes.
The full-space safeguard fires when *any* coordinate exceeds its upper
threshold, which is what keeps every individual risk below target; the
empty-set safeguard (any coordinate below its lower threshold) is optional.
When both safeguards fire at once the full space wins: conservatism keeps
the one-sided guarantee intact.

The two-sided claim for k > 1 is this. The lower lines
(``check_lower_theta_bound`` and ``check_two_sided_risk_bound``) are proven
on a trace with no conflict step, a step where one coordinate is above its
M_i and another below its m_j, given the strict loss contract
L(full) < r_i < L(empty). No condition on the spec alone rules a conflict
step out: on the sets a run builds, an adversary may give one risk a loss
above its target and another a loss below it, both within the contract.
While the first coordinate is above its M_i the full space is announced,
even when the second is below its m_j; the second then takes its
full-space loss, below its target, and keeps falling (the README's
two-risk example, and ``TestTwoSidedConflict`` in the tests). So the
certificate counts the conflict steps in its one walk of the trace
(``engine._walk``) and, on a trace with one, reports the lower lines as
INFO_PASS / INFO_FAIL with the count.

The spec, the loop and the certificates live in ``engine``, which runs every
controller; this module is the k-risk entry point.
"""

from __future__ import annotations

from .engine import MultiRiskSpec, StreamTrace, _run, control_update
from .stretching import Stretch


def run_multi_stream(stream, model, constructor, loss_fns, spec: MultiRiskSpec,
                     stretch: Stretch | None = None,
                     n_steps: int | None = None) -> StreamTrace:
    """Run the vector control loop over a labeled stream.

    ``loss_fns`` is one bounded loss per risk; all are evaluated on the same
    announced set each step. The stream protocol, step ordering and trace
    match ``engine.run_stream``, with (T, k) loss and theta columns. An
    adaptive stretch needs exactly one risk, whose loss and target drive it.
    """
    return _run(stream, model, constructor, tuple(loss_fns), spec,
                control_update(spec), stretch, n_steps)
