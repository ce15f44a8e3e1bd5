"""Bounded loss functions for prediction sets.

Every loss here satisfies the contract the risk guarantee needs: it is bounded
by a declared constant B, the full space earns a loss below any sensible
target, and the empty set earns a loss above it. A loss is a callable
``(y, prediction_set) -> float``; the miscoverage counter is the one stateful
loss (its value depends on the current run of misses).
"""

from __future__ import annotations

import numpy as np

from .sets import EMPTY_SET, FULL_SPACE, IntervalGrid


class BoundedLoss:
    """The loss contract. ``bound`` is the declared B the engine checks every
    value against; ``full_space_loss`` is the loss of FULL_SPACE (worst case
    over y) and ``empty_set_loss_min`` the smallest loss of EMPTY_SET. The
    pair lets the runner certify the guarantee's precondition
    L(y, full) < r < L(y, empty) without enumerating labels."""

    bound = 1.0
    full_space_loss = 0.0
    empty_set_loss_min = 1.0


class GridFitError(ValueError):
    """An image loss's mask or region does not fit the label grid; ``field``
    names which."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class BinaryLossFn(BoundedLoss):
    """0-1 miscoverage: 1 if y falls outside the set, else 0."""

    def __call__(self, y, prediction_set) -> float:
        return 0.0 if prediction_set.contains(y) else 1.0


class McLossFn(BoundedLoss):
    """Miscoverage-counter loss: 0 on coverage, else the length of the
    current run of consecutive misses, truncated at ``cap`` (the declared
    bound; the raw counter is unbounded). The run keeps counting past the
    cap."""

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


def _valid_mask(mask):
    """``mask`` as a boolean array with a valid pixel (None: every pixel)."""
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise GridFitError("mask", "no valid pixels to evaluate")
    return mask


def _fit_mask(mask, shape) -> None:
    if mask is not None and mask.shape != shape:
        raise GridFitError(
            "mask", f"mask shape {mask.shape} != grid shape {shape}")


def _pixel_covered(y, prediction_set) -> np.ndarray:
    if not isinstance(prediction_set, IntervalGrid):
        raise TypeError("image losses need an interval grid")
    if prediction_set.lo.shape != y.shape:
        raise ValueError(
            f"grid shape {prediction_set.lo.shape} != label shape {y.shape}")
    return prediction_set.pixel_covered(y)


class ImageMiscoverageFn(BoundedLoss):
    """Fraction of valid pixels whose true value escapes its interval."""

    def __init__(self, mask=None):
        self.mask = _valid_mask(mask)
        self._n_valid = None if mask is None else np.count_nonzero(self.mask)

    def __call__(self, y, prediction_set) -> float:
        y = np.asarray(y, dtype=float)
        _fit_mask(self.mask, y.shape)
        if prediction_set is EMPTY_SET:
            return 1.0
        if prediction_set is FULL_SPACE:
            return 0.0
        covered = _pixel_covered(y, prediction_set)
        if self.mask is None:
            return (y.size - np.count_nonzero(covered)) / y.size
        return ((self._n_valid - np.count_nonzero(covered & self.mask))
                / self._n_valid)


def default_center_region(shape):
    """Center region as (row0, row1, col0, col1), half-open.

    The middlemost 50 x 50 block when the grid is large enough, otherwise
    the middle half along each dimension.
    """
    h, w = shape
    size = 50
    if h >= size and w >= size:
        r0 = (h - size) // 2
        c0 = (w - size) // 2
        return (r0, r0 + size, c0, c0 + size)
    rh, rw = h // 2, w // 2
    r0 = (h - rh) // 2
    c0 = (w - rw) // 2
    return (r0, r0 + rh, c0, c0 + rw)


class CenterFailureFn(BoundedLoss):
    """1 if the covered fraction of the valid pixels inside the center region
    is <= threshold.

    The indicator fires at exactly the threshold (coverage must strictly
    exceed it to count as a success). The region defaults to
    ``default_center_region`` of the label grid.
    """

    def __init__(self, region=None, threshold: float = 0.6, mask=None):
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        self.region = region
        self.threshold = threshold
        self.mask = _valid_mask(mask)

    def __call__(self, y, prediction_set) -> float:
        y = np.asarray(y, dtype=float)
        _fit_mask(self.mask, y.shape)
        region = self.region
        if region is None:
            region = default_center_region(y.shape)
        r0, r1, c0, c1 = region
        if not (0 <= r0 < r1 <= y.shape[0] and 0 <= c0 < c1 <= y.shape[1]):
            raise GridFitError(
                "region", f"center region {region} does not fit grid {y.shape}")
        window = (slice(r0, r1), slice(c0, c1))
        sub = None if self.mask is None else self.mask[window]
        n = (r1 - r0) * (c1 - c0) if sub is None else np.count_nonzero(sub)
        if n == 0:
            raise GridFitError("region", "center region has no valid pixels")
        if prediction_set is EMPTY_SET:
            return 1.0
        if prediction_set is FULL_SPACE:
            return 0.0
        covered = _pixel_covered(y, prediction_set)[window]
        hits = np.count_nonzero(covered if sub is None else covered & sub)
        return 1.0 if hits / n <= self.threshold else 0.0
