"""Stream sources: synthetic tabular data with group-wise distribution
shifts, a known-quantile diagnostic stream, a synthetic image stream, and
CSV ingestion with time-feature augmentation and warm-up normalization.

All generators are deterministic given their seed and lazily evaluated, so
arbitrarily long streams need constant memory and replays match exactly.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .models import OracleModel

_NA_TOKENS = {"", "na", "nan", "null", "none"}


def _check_numbers(config, counts=(), finite=(), nonnegative=()) -> None:
    """Reject a generator config whose ``counts`` fields are below 1, whose
    ``finite`` fields are not finite, or whose ``nonnegative`` fields are
    not finite and >= 0."""
    for name in counts:
        if not getattr(config, name) >= 1:
            raise ValueError(f"{name} must be >= 1")
    for name in finite:
        if not math.isfinite(getattr(config, name)):
            raise ValueError(f"{name} must be finite, "
                             f"got {getattr(config, name)}")
    for name in nonnegative:
        if not 0.0 <= getattr(config, name) < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, "
                             f"got {getattr(config, name)}")


# ---------------------------------------------------------------------------
# Synthetic tabular stream (group-wise shifts)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Generator parameters for the shifting tabular stream.

    Groups last ~N(group_mean_length, group_length_std^2) steps; each group
    draws a direction beta (uniform, L1-normalized) and a scale omega that is
    N(scale_mean, scale_var) on even-indexed groups and 1 on odd ones, which
    is what produces the abrupt regime changes.
    """

    seed: int = 0
    n_features: int = 5
    group_mean_length: float = 500.0
    group_length_std: float = 10.0
    scale_mean: float = 20.0
    scale_var: float = 10.0

    def __post_init__(self):
        _check_numbers(self, counts=("n_features",),
                       finite=("group_mean_length", "scale_mean"),
                       nonnegative=("group_length_std", "scale_var"))


def synthetic_step(y_prev: float, x: np.ndarray, eps: float, omega: float,
                   beta: np.ndarray) -> float:
    """One response draw: y = y_prev/2 + omega^2*|beta.x| + 2*sin(2*x_1*eps)."""
    return 0.5 * y_prev + omega ** 2 * abs(float(beta.dot(x))) \
        + 2.0 * math.sin(2.0 * x[0] * eps)


def synthetic_stream(config: SyntheticConfig, n_steps: int | None = None):
    """Yield (x, y, group_id) per the group-shift recursion, starting at y=0.

    Group ids start at 1. The group schedule is generated lazily, so the
    stream can be consumed indefinitely.
    """
    rng = np.random.default_rng(config.seed)
    p = config.n_features
    scale_std = math.sqrt(config.scale_var)

    y_prev = 0.0
    group = 0
    remaining = 0
    beta = None
    omega = 1.0
    t = 0
    while n_steps is None or t < n_steps:
        if remaining <= 0:
            group += 1
            remaining = max(1, int(round(rng.normal(
                config.group_mean_length, config.group_length_std))))
            raw = rng.random(p)
            beta = raw / np.abs(raw).sum()
            if group % 2 == 0:
                omega = rng.normal(config.scale_mean, scale_std)
            else:
                omega = 1.0
        x = rng.random(p)
        eps = rng.standard_normal()
        y = synthetic_step(y_prev, x, eps, omega, beta)
        yield x, y, group
        y_prev = y
        remaining -= 1
        t += 1


def successive_difference_scale(ys) -> float:
    """Mean absolute change between consecutive labels.

    The recommended clipping range for adaptive stretching is +/- this
    value: it puts the stretch state on the scale of a typical one-step
    movement of the target.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size < 2:
        raise ValueError("need at least two labels")
    return float(np.mean(np.abs(np.diff(ys))))


def _warmup_statistics(x: np.ndarray, y: np.ndarray, names):
    """Mean and population std of the warm-up rows ``x`` (one column per
    name) and of their targets ``y``. A column or a target that is constant
    over the warm-up is left unscaled (mean 0, std 1), with a warning."""
    x_mean = x.mean(axis=0)
    x_std = x.std(axis=0)
    for j, name in enumerate(names):
        if x_std[j] == 0.0:
            warnings.warn(f"column {name!r} constant over warm-up; left unscaled")
            x_mean[j], x_std[j] = 0.0, 1.0
    y_mean, y_std = float(y.mean()), float(y.std())
    if y_std == 0.0:
        warnings.warn("target constant over warm-up; left unscaled")
        y_mean, y_std = 0.0, 1.0
    return x_mean, x_std, y_mean, y_std


def standardize_stream(points, warmup: int):
    """Standardize a labeled stream by statistics of its first ``warmup``
    points, then yield every point in original order.

    The statistics are the ones CSV ingestion computes: they never use
    data beyond the warm-up window, constant coordinates and a constant
    target are left unscaled, and the warm-up points themselves are emitted
    standardized. Only the warm-up prefix is buffered.
    """
    if warmup < 1:
        raise ValueError("warmup must be >= 1")
    it = iter(points)
    head = []
    for item in it:
        head.append(item)
        if len(head) >= warmup:
            break
    if not head:
        return
    xs = np.asarray([np.atleast_1d(p[0]) for p in head], dtype=float)
    ys = np.asarray([p[1] for p in head], dtype=float)
    x_mean, x_std, y_mean, y_std = _warmup_statistics(
        xs, ys, range(xs.shape[1]))

    def scale(item):
        x, y = item[0], item[1]
        x = (np.atleast_1d(np.asarray(x, dtype=float)) - x_mean) / x_std
        y = (float(y) - y_mean) / y_std
        if len(item) == 3:
            return x, y, item[2]
        return x, y

    for item in head:
        yield scale(item)
    for item in it:
        yield scale(item)


# ---------------------------------------------------------------------------
# Known-quantile diagnostic stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnownQuantileConfig:
    """i.i.d. stream y = slope*x_1 + intercept + noise_std*eps with known
    conditional quantiles, for oracle-model diagnostics."""

    seed: int = 0
    n_features: int = 1
    slope: float = 2.0
    intercept: float = 0.0
    noise_std: float = 1.0

    def __post_init__(self):
        _check_numbers(self, counts=("n_features",),
                       finite=("slope", "intercept"),
                       nonnegative=("noise_std",))


class KnownQuantileStream:
    """Stream with an analytically known conditional distribution."""

    def __init__(self, config: KnownQuantileConfig):
        self.config = config

    def mu(self, x) -> float:
        x = np.atleast_1d(x)
        return self.config.slope * float(x[0]) + self.config.intercept

    def sigma(self, x) -> float:
        return self.config.noise_std

    def oracle_model(self) -> OracleModel:
        return OracleModel(self.mu, self.sigma)

    def generate(self, n_steps: int | None = None):
        rng = np.random.default_rng(self.config.seed)
        p = self.config.n_features
        t = 0
        while n_steps is None or t < n_steps:
            x = rng.random(p)
            y = self.mu(x) + self.sigma(x) * rng.standard_normal()
            yield x, y
            t += 1


# ---------------------------------------------------------------------------
# Synthetic image stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageStreamConfig:
    """Correlated-noise image stream with piecewise variance shifts.

    Each frame pairs a fixed smooth "prediction" field with a label equal to
    prediction + noise; the noise mixes a frame-wide component (weight
    frame_corr) with per-pixel white noise. Every shift_period steps the
    noise scale toggles between base_sigma and base_sigma * shift_factor
    (shift_factor=1 or shift_period=0 gives a stationary stream).
    base_sigma and shift_factor are finite and >= 0, shift_period >= 0,
    frame_corr in [-1, 1], and height and width >= 1.
    """

    seed: int = 0
    height: int = 16
    width: int = 16
    base_sigma: float = 1.0
    shift_period: int = 0
    shift_factor: float = 1.0
    frame_corr: float = 0.5

    def __post_init__(self):
        _check_numbers(self, counts=("height", "width"), nonnegative=(
            "base_sigma", "shift_period", "shift_factor"))
        if not -1.0 <= self.frame_corr <= 1.0:
            raise ValueError(
                f"frame_corr must be in [-1, 1], got {self.frame_corr}")


def _smooth_field(h: int, w: int) -> np.ndarray:
    rows = np.sin(np.linspace(0.0, math.pi, h))[:, None]
    cols = np.cos(np.linspace(0.0, 2.0 * math.pi, w))[None, :]
    return 2.0 * rows * cols


def image_stream(config: ImageStreamConfig, n_steps: int | None = None):
    """Yield (predicted_grid, label_grid) frames."""
    rng = np.random.default_rng(config.seed)
    shape = (config.height, config.width)
    base = _smooth_field(*shape)
    rho = config.frame_corr
    w_pixel = math.sqrt(max(0.0, 1.0 - rho ** 2))

    t = 0
    while n_steps is None or t < n_steps:
        if config.shift_period and (t // config.shift_period) % 2 == 1:
            sigma = config.base_sigma * config.shift_factor
        else:
            sigma = config.base_sigma
        z = rng.standard_normal()
        # base + sigma * (rho * z + w_pixel * noise), in the drawn buffer
        noise = rng.standard_normal(shape)
        noise *= w_pixel
        noise += rho * z
        noise *= sigma
        noise += base
        yield base, noise
        t += 1


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass
class CsvStreamConfig:
    """How to read a labeled time-series CSV.

    The first ``warmup`` rows supply the normalization statistics
    (population standard deviation); time features derived from the
    timestamp column (day, month, year, hours, minutes, day-of-week) are
    appended unscaled after the standardized raw features.
    """

    path: str
    timestamp_col: str
    target_col: str
    feature_cols: list = field(default_factory=list)
    warmup: int = 8000
    augment_time: bool = True
    timestamp_format: str = "iso"  # "iso" or "epoch"


_TIME_FEATURES = ("day", "month", "year", "hours", "minutes", "day_of_week")


class CsvInputError(ValueError):
    """The file does not fit its CsvStreamConfig; ``field`` names the config
    field at fault ("path" when the file's own content is)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def _parse_timestamp(raw: str, fmt: str, row_idx: int) -> datetime:
    try:
        if fmt == "epoch":
            return datetime.fromtimestamp(float(raw), tz=timezone.utc).replace(tzinfo=None)
        return datetime.fromisoformat(raw)
    except (ValueError, OverflowError) as exc:
        raise CsvInputError(
            "timestamp_format",
            f"row {row_idx}: cannot parse timestamp {raw!r} as {fmt}: {exc}"
        ) from exc


def _time_features(ts: datetime) -> list[float]:
    return [float(ts.day), float(ts.month), float(ts.year),
            float(ts.hour), float(ts.minute), float(ts.weekday())]


@dataclass
class CsvStream:
    """Materialized, standardized stream from a CSV file.

    ``x`` rows are standardized raw features followed by raw time features;
    ``group`` is the day-of-week code (or -1 without timestamps). The
    normalization statistics are retained for inspection and de-scaling.
    ``x``, ``y`` and ``group`` are read-only: one ingestion is a snapshot of
    the file that every trial reading it shares, so a consumer that writes
    into a row fails instead of changing the data the next trial sees.
    Iteration yields ``(row, label, group)``: a read-only view of the row
    of ``x``, a Python float and a Python int. A pass reads ``y`` and
    ``group`` through ``memoryview``s, which build each Python value as it
    is read, so no item pays for a numpy scalar and no pass copies a column.
    """

    x: np.ndarray
    y: np.ndarray
    group: np.ndarray
    feature_names: list
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def __iter__(self):
        return zip(self.x, memoryview(self.y), memoryview(self.group))

    def __len__(self) -> int:
        return len(self.y)


def csv_ingest(config: CsvStreamConfig) -> CsvStream:
    """Read, validate, augment and standardize a CSV stream.

    Rows are consumed strictly in file order. Rows with missing values are
    rejected with a warning naming the row and column; unparseable values
    raise with the same diagnostics. Constant columns over the warm-up
    window are left unscaled with a warning. Normalization statistics come
    from the warm-up rows only -- later rows never leak into them. A file
    that does not fit the config raises ``CsvInputError`` naming the config
    field at fault; a missing or unreadable one raises ``OSError``.

    Accepted rows go into flat typed columns, 8 bytes per value (88 bytes
    per row with three features and the six time features): each row's
    features and time features into one ``array('d')`` whose view is
    ``X``, the targets and the groups into their own. The feature columns
    of ``X`` and the targets are standardized in place once the warm-up
    statistics are taken, so ``X`` is never copied.
    """
    targets = array("d")
    # each row's features, then its six time features: the rows of X
    rows_x = array("d")
    groups = array("q")

    with open(config.path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvInputError("path", f"{config.path}: missing header row")
        # a name the header repeats reads its last column
        index = {name: j for j, name in enumerate(header)}
        feature_cols = list(config.feature_cols)
        if not feature_cols:
            reserved = {config.target_col, config.timestamp_col}
            feature_cols = [c for c in header if c not in reserved]
        needed = [("target_col", config.target_col)]
        needed += [("feature_cols", c) for c in feature_cols]
        if config.augment_time or config.timestamp_col:
            needed.append(("timestamp_col", config.timestamp_col))
        for fld, col in needed:
            if col not in index:
                raise CsvInputError(
                    fld, f"{config.path}: column {col!r} not in header")
        value_cols = [(col, index[col])
                      for col in [config.target_col] + feature_cols]
        ts_col = index.get(config.timestamp_col)

        # blank lines are skipped and not counted; a short row's missing
        # cells are empty
        for idx, row in enumerate(filter(None, reader), start=1):
            n = len(row)
            values = []
            for col, j in value_cols:
                # float() strips the whitespace strip() would, and no NA
                # token parses to a number, so a non-NaN float is the value
                try:
                    value = float(row[j])
                except (ValueError, IndexError):
                    value = math.nan
                if value != value:
                    raw = row[j].strip() if j < n else ""
                    if raw.lower() in _NA_TOKENS:
                        warnings.warn(f"row {idx} rejected: missing value "
                                      f"in column {col!r}")
                        break
                    try:
                        value = float(raw)
                    except ValueError as exc:
                        raise CsvInputError(
                            "path",
                            f"row {idx}, column {col!r}: cannot parse {raw!r}"
                        ) from exc
                values.append(value)
            else:
                if config.augment_time:
                    raw = row[ts_col].strip() if ts_col < n else ""
                    ts = _parse_timestamp(raw, config.timestamp_format, idx)
                    values += _time_features(ts)
                    groups.append(ts.weekday())
                else:
                    groups.append(-1)
                targets.append(values[0])
                rows_x.fromlist(values[1:])

    rows = len(targets)
    if not rows:
        raise CsvInputError("path", f"{config.path}: no usable rows")
    if config.warmup > rows:
        raise CsvInputError(
            "warmup",
            f"warm-up size {config.warmup} exceeds row count {rows}")
    warmup = config.warmup

    names = list(feature_cols)
    if config.augment_time:
        names += list(_TIME_FEATURES)
    X = np.frombuffer(rows_x, dtype=float).reshape(rows, len(names))
    y = np.frombuffer(targets, dtype=float)
    feats = X[:, :len(feature_cols)]

    x_mean, x_std, y_mean, y_std = _warmup_statistics(
        feats[:warmup], y[:warmup], feature_cols)
    # standardized in place: no copy of X or y
    feats -= x_mean
    feats /= x_std
    y -= y_mean
    y /= y_std

    group = np.frombuffer(groups, dtype=np.int64)
    for arr in (X, y, group):
        arr.setflags(write=False)
    return CsvStream(
        x=X, y=y, group=group,
        feature_names=names, x_mean=x_mean, x_std=x_std,
        y_mean=y_mean, y_std=y_std,
    )
