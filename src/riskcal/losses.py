"""Bounded loss functions for prediction sets.

Every loss here satisfies the contract the risk guarantee needs: it is bounded
by a declared constant B, the full space earns a loss below any sensible
target, and the empty set earns a loss above it. The miscoverage counter is
the one stateful loss (its value depends on the current run of misses).
"""

from __future__ import annotations

import numpy as np

from .sets import EMPTY_SET, FULL_SPACE, IntervalGrid


def binary_loss(y, prediction_set) -> float:
    """0-1 miscoverage: 1 if y falls outside the set, else 0."""
    return 0.0 if prediction_set.contains(y) else 1.0


def image_miscoverage(y, prediction_set, mask=None) -> float:
    """Fraction of valid pixels whose true value escapes its interval."""
    y = np.asarray(y, dtype=float)
    if mask is None:
        n_valid = y.size
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != y.shape:
            raise ValueError(f"mask shape {mask.shape} != grid shape {y.shape}")
        n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("no valid pixels to evaluate")
    if prediction_set is EMPTY_SET:
        return 1.0
    if prediction_set is FULL_SPACE:
        return 0.0
    if not isinstance(prediction_set, IntervalGrid):
        raise TypeError("image miscoverage needs an interval grid")
    if prediction_set.lo.shape != y.shape:
        raise ValueError(
            f"grid shape {prediction_set.lo.shape} != label shape {y.shape}")
    covered = prediction_set.pixel_covered(y)
    if mask is not None:
        miss = int(np.sum(~covered & mask))
    else:
        miss = int(np.sum(~covered))
    return miss / n_valid


def default_center_region(shape, size: int = 50):
    """Center region as (row0, row1, col0, col1), half-open.

    The middlemost ``size`` x ``size`` block when the grid is large enough,
    otherwise the middle half along each dimension.
    """
    h, w = shape
    if h >= size and w >= size:
        r0 = (h - size) // 2
        c0 = (w - size) // 2
        return (r0, r0 + size, c0, c0 + size)
    rh, rw = h // 2, w // 2
    r0 = (h - rh) // 2
    c0 = (w - rw) // 2
    return (r0, r0 + rh, c0, c0 + rw)


def center_failure(y, prediction_set, region=None, threshold: float = 0.6,
                   mask=None) -> float:
    """1 if the covered fraction inside the center region is <= threshold.

    The indicator fires at exactly the threshold (coverage must strictly
    exceed it to count as a success).
    """
    y = np.asarray(y, dtype=float)
    if region is None:
        region = default_center_region(y.shape)
    r0, r1, c0, c1 = region
    if not (0 <= r0 < r1 <= y.shape[0] and 0 <= c0 < c1 <= y.shape[1]):
        raise ValueError(f"center region {region} does not fit grid {y.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != y.shape:
            raise ValueError(f"mask shape {mask.shape} != grid shape {y.shape}")
        sub = mask[r0:r1, c0:c1]
        n = int(sub.sum())
        if n == 0:
            raise ValueError("center region has no valid pixels")
    if prediction_set is EMPTY_SET:
        frac = 0.0
    elif prediction_set is FULL_SPACE:
        frac = 1.0
    else:
        covered = prediction_set.pixel_covered(y)[r0:r1, c0:c1]
        if mask is not None:
            frac = float(np.sum(covered & sub)) / n
        else:
            frac = float(covered.mean())
    return 1.0 if frac <= threshold else 0.0


# ---------------------------------------------------------------------------
# Stateful adapters used by the control loop
# ---------------------------------------------------------------------------
#
# An adapter is a callable (y, prediction_set) -> float carrying:
#   bound               declared B; the engine validates every value against it
#   full_space_loss     loss of FULL_SPACE (worst case over y)
#   empty_set_loss_min  smallest possible loss of EMPTY_SET
# The pair lets the runner certify the guarantee precondition
# L(y, full) < r < L(y, empty) without enumerating labels.

class BinaryLossFn:
    bound = 1.0
    full_space_loss = 0.0
    empty_set_loss_min = 1.0

    def __call__(self, y, prediction_set) -> float:
        return binary_loss(y, prediction_set)


class McLossFn:
    """Miscoverage-counter loss: 0 on coverage, else the length of the
    current run of consecutive misses, truncated at ``cap`` (the declared
    bound; the raw counter is unbounded). The run keeps counting past the
    cap."""

    full_space_loss = 0.0
    empty_set_loss_min = 1.0

    def __init__(self, cap: int = 50):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.bound = float(cap)
        self._run = 0

    def __call__(self, y, prediction_set) -> float:
        if prediction_set.contains(y):
            self._run = 0
            return 0.0
        self._run += 1
        return float(min(self._run, self.cap))


class ImageMiscoverageFn:
    bound = 1.0
    full_space_loss = 0.0
    empty_set_loss_min = 1.0

    def __init__(self, mask=None):
        self.mask = mask

    def __call__(self, y, prediction_set) -> float:
        return image_miscoverage(y, prediction_set, self.mask)


class CenterFailureFn:
    bound = 1.0
    full_space_loss = 0.0
    empty_set_loss_min = 1.0

    def __init__(self, region=None, threshold: float = 0.6, mask=None):
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        self.region = region
        self.threshold = threshold
        self.mask = mask

    def __call__(self, y, prediction_set) -> float:
        return center_failure(y, prediction_set, self.region, self.threshold,
                              self.mask)
