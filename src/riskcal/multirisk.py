"""Simultaneous control of several risks with a vector calibration parameter.

Each risk gets its own coordinate, target, step size and safeguards; the
coordinates are updated independently and then aggregated (mean or max of
the stretched values) into the single scalar the set constructor consumes.
The full-space safeguard fires when *any* coordinate exceeds its upper
threshold, which is what keeps every individual risk below target; the
empty-set safeguard (any coordinate below its lower threshold) is optional.
When both safeguards fire at once the full space wins: conservatism keeps
the one-sided guarantee intact. So with k > 1 the empty-set safeguard does
not make convergence two-sided: a coordinate already below its floor takes
its full-space loss on such a step, which is below its target, and can
keep falling without bound (the README gives a two-risk adversary that does
this). The lower bounds hold on a run where no step has one coordinate
above its M_i and another below its m_j (a conflict step), given the strict
loss contract L(full) < r_i < L(empty). The certificate checks them and,
on a trace with a conflict step (counted by ``engine._walk``), reports them
as INFO_PASS / INFO_FAIL with the number of conflict steps.

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
