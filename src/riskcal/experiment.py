"""Experiment runner: wire a stream, model, constructor, losses, stretch and
controller from a JSON config, run trials across seeds, and emit traces,
reports and bound certificates.

Artifacts per run directory:
    config.json          the configuration as given
    trial_XXX/trace.csv  one row per step, fixed column order
    trial_XXX/report.json
    aggregate.json       mean/std across trials
    certificate.txt      PASS/FAIL per deterministic bound check

Trials execute sequentially in trial order; each trial derives its own seed
(base seed + trial index) and starts from the same state as the others, so
identical configs produce byte-identical artifacts. One driver call
(``run_experiment``, or ``sweep`` with all its points) reads each input file
once: its trials and points share one read-only snapshot of each CSV stream,
and each trial rewinds the one replayed model to its first row.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import inspect
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import baseline, engine, losses as losses_mod, metrics, multirisk
from .models import (ConstantModel, LinearPinballModel, ReplayModel,
                     pinball_loss)
from .sets import (FULL_SPACE, ConstantHeuristic, CqrConstructor,
                   ImageIntervalConstructor, PreviousResidualsHeuristic,
                   QuantileScaleConstructor, RunningResidualHeuristic)
from .stretching import STRETCH_KINDS, Stretch
from .streams import (CsvStreamConfig, ImageStreamConfig, KnownQuantileConfig,
                      KnownQuantileStream, SyntheticConfig, csv_ingest,
                      image_stream, successive_difference_scale,
                      synthetic_stream)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration rejected before any computation; carries a field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def load_config(path: str) -> dict:
    """The config in the JSON file at ``path``, validated; a file that cannot
    be read or parsed is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: "
                          f"{exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc.msg} at line "
                          f"{exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: {exc.reason} at "
                          f"byte {exc.start}") from exc
    validate_config(cfg)
    return cfg


# The input files read by the driver call in progress, keyed by the section
# that reads them and what selects the read; None outside a driver call.
_INPUTS: contextvars.ContextVar = contextvars.ContextVar(
    "riskcal_inputs", default=None)


def _reads_inputs_once(driver):
    """Make one call of ``driver`` read each input file once.

    The outermost driver call (a sweep, or a run_experiment outside one)
    owns the scope and nested calls share it, so the auto-stretch probes,
    trials and grid points of one call iterate one read-only CsvStream per
    distinct ``stream`` section and replay one ReplayModel per ``model.path``.
    Nothing outlives the call: the next call reads the files again.
    """
    @functools.wraps(driver)
    def scoped(*args, **kwargs):
        if _INPUTS.get() is not None:
            return driver(*args, **kwargs)
        token = _INPUTS.set({})
        try:
            return driver(*args, **kwargs)
        finally:
            _INPUTS.reset(token)
    return scoped


def _read_input(section: str, read, arg, key):
    """``read(arg)`` for an input file the config section names, once per
    driver call and ``key``; a file that cannot be read or does not fit the
    config is a ConfigError."""
    memo = _INPUTS.get()
    memo = {} if memo is None else memo
    key = (section, key)
    if key in memo:
        return memo[key]
    try:
        memo[key] = read(arg)
    except OSError as exc:
        raise ConfigError(f"{section}.path",
                          f"cannot read {exc.filename}: "
                          f"{exc.strerror or exc}") from exc
    except ValueError as exc:
        fld = getattr(exc, "field", "path")
        raise ConfigError(f"{section}.{fld}", str(exc)) from exc
    return memo[key]


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------
#
# _TOP declares every field a config takes, as name -> (type, default). A
# section with a ``kind`` takes the fields its kind lists, and the kind
# names the builder of its part. ``_takes`` reads defaults from the library
# dataclass or callable the fields feed, so no default is written twice.

def _known_quantile_stream(seed: int, steps: int, **f):
    kq = KnownQuantileStream(KnownQuantileConfig(seed=seed, **f))
    return kq.generate(steps), kq  # kq builds the oracle model


def _csv_stream(seed: int, steps: int, **f):
    # the file is the stream; the driver call reads it once
    cs = _read_input("stream", csv_ingest, CsvStreamConfig(**f),
                     json.dumps(f, sort_keys=True))
    # an inf or NaN cell in the warm-up (or a spread that overflows) makes
    # its whole column non-finite or zero once standardized; the statistics
    # cover the raw features, which feature_names lists first
    for col, mean, std in [(f["target_col"], cs.y_mean, cs.y_std),
                           *zip(cs.feature_names, cs.x_mean.tolist(),
                                cs.x_std.tolist())]:
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise ConfigError(
                "stream.path", f"{f['path']}: column {col!r} has warm-up "
                f"mean {mean} and std {std}; both must be finite over its "
                f"first {f['warmup']} rows")
    return iter(cs), cs


def _replay_model(rc, stream_obj, taus, path):
    # the driver call reads the file once; each trial replays it from row 0
    model = _read_input("model", ReplayModel.from_csv, path, path)
    model.rewind()
    return model


def _check_input_rows(rc) -> None:
    """The checks that need an input file's rows, read through the driver
    call's memo: a window past a CSV stream's last row, and a replay file
    that lacks a level or replays fewer steps than the run takes. A
    ConfigError names the field."""
    rows = rc.steps
    if rc.stream.kind == "csv":
        _, cs = rc.stream.build(rc.seed, rc.steps)
        # the run ends at the file's last row, which may come before steps
        rows = len(cs.y)
        for key in ("eval_window", "val_window"):
            win = getattr(rc, key)
            if win is not None:
                _require(win[1] <= rows, key, f"ends at step {win[1]}, past "
                         f"the last row of {rc.stream.fields['path']}, which "
                         f"has {rows} rows")
        rows = min(rc.steps, rows)
    if rc.model.kind == "replay":
        path, taus = rc.model.fields["path"], rc.model.fields["taus"]
        model = _read_input("model", ReplayModel.from_csv, path, path)
        missing = [t for t in taus if t not in model.taus]
        _require(not missing, "model.taus", f"levels {missing} are not "
                 f"replayed by {path}; it has {model.taus}")
        _require(model.n_steps >= rows, "model.path",
                 f"{path} replays {model.n_steps} steps; the run takes {rows}")


def _stretch(rc, seed: int | None) -> Stretch:
    """The stretch of a trial. "auto" bounds clip at the mean absolute
    successive label difference over a warm-up prefix of the trial's stream
    (at 1 for the check of an unseeded build). A prefix of fewer than two
    labels, or one whose scale is not finite, is a ConfigError."""
    f = rc.stretch.fields
    if "auto" in f.values():
        scale = 1.0
        if seed is not None:
            probe, _ = rc.stream.build(seed, rc.steps)
            n = max(10, min(2000, rc.steps // 4))
            ys = [item[1] for item, _ in zip(probe, range(n))]
            _require(len(ys) >= 2, "stretch.beta_low",
                     f"auto bounds need at least two labels; the stream "
                     f"has {len(ys)}")
            scale = successive_difference_scale(ys)
            _require(math.isfinite(scale), "stretch.beta_low",
                     f"auto bounds need finite labels; the first {len(ys)} "
                     f"labels give a scale of {scale}")
        f = {**f, "beta_low": -scale, "beta_high": scale}
    return Stretch(kind=rc.stretch.kind, **f)


_REQUIRED = inspect.Parameter.empty  # no default: the config must give it
_DERIVED = object()   # a default validate_config derives from other sections


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


class _Type(NamedTuple):
    """A JSON type: what a value must be, its test, the value built."""

    what: str
    test: Callable
    convert: Callable = lambda v: v

    def resolve(self, value, path: str):
        try:
            if self.test(value):
                return self.convert(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigError(path, f"must be {self.what}")


_INT = _Type("an integer", _is_int)
_COUNT = _Type("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_NONNEG = _Type("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_NUM = _Type("a number", _is_num, float)
_FINITE = _Type("a finite number", lambda v: _is_num(v) and math.isfinite(v),
                float)
_BOOL = _Type("a boolean", lambda v: isinstance(v, bool))
_STR = _Type("a string", lambda v: isinstance(v, str))
_STRS = _Type("a list of strings", lambda v: _is_list(v, _STR.test), list)
_TAUS = _Type("a nonempty list of numbers in (0, 1)",
              lambda v: _is_list(v, lambda t: _is_num(t) and 0 < t < 1)
              and len(v) > 0, lambda v: tuple(map(float, v)))
_PER_RISK = _Type("a number or a list of numbers, one per risk",
                  lambda v: _is_num(v) or _is_list(v, _is_num),
                  lambda v: float(v) if _is_num(v) else tuple(map(float, v)))
_FINITE_PER_RISK = _PER_RISK._replace(
    what="a finite number or a list of finite numbers, one per risk",
    test=lambda v: _FINITE.test(v) or _is_list(v, _FINITE.test))
_BETA = _Type('a number or "auto"', lambda v: v == "auto" or _is_num(v),
              lambda v: v if v == "auto" else float(v))
_LEVELS = _Type("an object of numbers keyed by quantile level",
                lambda v: isinstance(v, dict)
                and all(map(_is_num, v.values())),
                lambda v: {float(k): float(x) for k, x in v.items()})
_MASK = _Type("an array of booleans", lambda v: isinstance(v, (list, tuple)),
              lambda v: np.asarray(v, dtype=bool))
_REGION = _Type("[row_start, row_end, col_start, col_end]",
                lambda v: _is_list(v, _is_int) and len(v) == 4, tuple)
_WINDOW = _Type("[start, end] with integer steps",
                lambda v: _is_list(v, _is_int) and len(v) == 2, tuple)


def _takes(source, **types) -> dict:
    """name -> (type, default of ``source``, a dataclass or a callable)."""
    if dataclasses.is_dataclass(source):
        defaults = {f.name: f.default_factory() if callable(f.default_factory)
                    else f.default for f in dataclasses.fields(source)}
    else:
        defaults = {p.name: p.default
                    for p in inspect.signature(source).parameters.values()}
    return {name: (t, _REQUIRED if defaults[name] is dataclasses.MISSING
                   else defaults[name]) for name, t in types.items()}


def _resolve_fields(raw: dict, path: str, takes: dict,
                    kind: str | None = None) -> dict:
    """The fields ``takes`` declares, read from ``raw``: typed, defaults
    filled in. A null where the default is null is the default."""
    names = ("kind", *takes) if kind else tuple(takes)
    what = f"{path} kind {kind!r}" if kind else "a config"
    for name in raw:
        _require(name in names, f"{path}.{name}".lstrip("."),
                 f"unknown field; {what} takes {', '.join(names)}")
    out = {}
    for name, (ftype, default) in takes.items():
        fpath = f"{path}.{name}".lstrip(".")
        if name in raw and not (raw[name] is None and default is None):
            out[name] = ftype.resolve(raw[name], fpath)
        else:
            _require(default is not _REQUIRED, fpath, "is required")
            # a section left out resolves to its default kind
            out[name] = (default if isinstance(ftype, _Type)
                         else ftype.resolve(default, fpath))
    return out


class _Part(NamedTuple):
    """A resolved section: its kind, and every field the kind takes."""

    kind: str
    fields: dict
    builder: Callable | None

    def build(self, *context):
        return self.builder(*context, **self.fields)


class _Section(NamedTuple):
    """An object whose ``kind`` picks its fields: kind -> (fields, builder)."""

    kinds: dict
    default_kind: str | None = None

    def resolve(self, value, path: str) -> _Part:
        _require(isinstance(value, dict), path, "must be an object")
        kind = value.get("kind", self.default_kind)
        _require(isinstance(kind, str) and kind in self.kinds, f"{path}.kind",
                 f"must be one of {tuple(self.kinds)}")
        takes, builder = self.kinds[kind]
        return _Part(kind, _resolve_fields(value, path, takes, kind), builder)


class _List(NamedTuple):
    """A nonempty list of sections."""

    item: _Section

    def resolve(self, value, path: str) -> tuple:
        _require(isinstance(value, list) and len(value) > 0, path,
                 "must be a nonempty list")
        return tuple(self.item.resolve(v, f"{path}[{i}]")
                     for i, v in enumerate(value))


def _control(t, finite) -> dict:
    """gamma, m, M and B of the single (t a number) and multi controllers;
    an infinite m, M or B would make every bound vacuous."""
    return {"gamma": (t, 0.05), "m": (finite, -9999.0),
            "M": (finite, 9999.0), "B": (finite, _DERIVED)}


# Every model takes the levels the cqr constructor, the baseline and the
# sweep's validation score read.
_MODEL_TAUS = _takes(LinearPinballModel, taus=_TAUS)
_LOSS_TARGET = {"r": (_NUM, _REQUIRED)}
_IMAGE_LOSSES = ("image_miscoverage", "center_failure")

_TOP = {
    "schema_version": (_Type(str(SCHEMA_VERSION), lambda v: _is_int(v)
                             and v == SCHEMA_VERSION), _REQUIRED),
    "steps": (_COUNT, _REQUIRED),
    "trials": (_COUNT, _REQUIRED),
    "seed": (_INT, 0),
    "eval_window": (_WINDOW, None),
    "val_window": (_WINDOW, None),
    "out_dir": (_STR, "out"),
    # builders: (seed, steps, **fields) -> (iterable, stream object)
    "stream": (_Section({
        "synthetic": (_takes(
            SyntheticConfig, n_features=_COUNT, group_mean_length=_NUM,
            group_length_std=_NUM, scale_mean=_NUM, scale_var=_NUM),
            lambda seed, steps, **f: (synthetic_stream(
                SyntheticConfig(seed=seed, **f), steps), None)),
        "known_quantile": (_takes(
            KnownQuantileConfig, n_features=_COUNT, slope=_NUM, intercept=_NUM,
            noise_std=_NUM), _known_quantile_stream),
        "image": (_takes(
            ImageStreamConfig, height=_COUNT, width=_COUNT, base_sigma=_NUM,
            shift_period=_INT, shift_factor=_NUM, frame_corr=_NUM),
            lambda seed, steps, **f: (image_stream(
                ImageStreamConfig(seed=seed, **f), steps), None)),
        "csv": ({**_takes(
            CsvStreamConfig, path=_STR, target_col=_STR, feature_cols=_STRS,
            warmup=_COUNT, augment_time=_BOOL, timestamp_format=_STR),
            "timestamp_col": (_STR, "")}, _csv_stream),
    }), _REQUIRED),
    # builders: (resolved config, stream object, **fields) -> model
    "model": (_Section({
        # a CSV stream's feature count is known once its file is read
        "linear_pinball": (_takes(
            LinearPinballModel, taus=_TAUS, lr=_NUM, fit_intercept=_BOOL,
            n_sgd_steps=_INT), lambda rc, s, **f: LinearPinballModel(
                s.x.shape[1] if rc.stream.kind == "csv"
                else rc.stream.fields["n_features"], **f)),
        "oracle": (_MODEL_TAUS, lambda rc, s, taus: s.oracle_model()),
        "constant": ({**_MODEL_TAUS, **_takes(
            ConstantModel, values=_LEVELS, default=_NUM)},
            lambda rc, s, taus, **f: ConstantModel(**f)),
        "replay": ({**_MODEL_TAUS, "path": (_STR, _REQUIRED)}, _replay_model),
    }), _REQUIRED),
    # builders: (model taus, **fields) -> constructor
    "constructor": (_Section({
        "cqr": ({}, lambda taus: CqrConstructor(min(taus), max(taus))),
        "quantile_scale": ({}, lambda taus: QuantileScaleConstructor()),
        "image": ({"heuristic": (_Section({
            "constant": (_takes(ConstantHeuristic, value=_NUM),
                         ConstantHeuristic),
            "residual_model": (_takes(RunningResidualHeuristic, decay=_NUM),
                               RunningResidualHeuristic),
            "previous_residuals": (_takes(PreviousResidualsHeuristic,
                                          window=_INT),
                                   PreviousResidualsHeuristic),
        }, default_kind="previous_residuals"), {})},
            lambda taus, heuristic: ImageIntervalConstructor(
                heuristic.build())),
    }), _REQUIRED),
    # builders: (**fields) -> loss function
    "losses": (_List(_Section({
        "binary": (_LOSS_TARGET, lambda r: losses_mod.BinaryLossFn()),
        "mc": ({**_LOSS_TARGET, **_takes(losses_mod.McLossFn, cap=_INT)},
               lambda r, cap: losses_mod.McLossFn(cap)),
        "image_miscoverage": ({**_LOSS_TARGET, **_takes(
            losses_mod.ImageMiscoverageFn, mask=_MASK)},
            lambda r, mask: losses_mod.ImageMiscoverageFn(mask)),
        "center_failure": ({**_LOSS_TARGET, **_takes(
            losses_mod.CenterFailureFn, region=_REGION, threshold=_NUM,
            mask=_MASK)}, lambda r, **f: losses_mod.CenterFailureFn(**f)),
    })), _REQUIRED),
    # each kind takes the beta_* fields its update reads
    "stretch": (_Section({
        **dict.fromkeys(STRETCH_KINDS, ({}, None)),
        "score_adaptive": (_takes(Stretch, beta_score=_NUM, beta_low=_BETA,
                                  beta_high=_BETA), None),
        "error_adaptive": (_takes(Stretch, beta_score=_NUM, beta_loss=_NUM,
                                  beta_low=_BETA, beta_high=_BETA), None),
    }, default_kind=Stretch.kind), {}),
    "controller": (_Section({
        "single": ({**_control(_NUM, _FINITE),
                    "theta_init": (_NUM, _DERIVED)}, None),
        "multi": ({**_control(_PER_RISK, _FINITE_PER_RISK), **_takes(
            engine.MultiRiskSpec, theta_init=_PER_RISK, aggregation=_STR,
            two_sided=_BOOL)}, None),
        "baseline_aci": ({"gamma": _control(_NUM, _FINITE)["gamma"],
                          "alpha": (_NUM, _DERIVED),
                          "window": _takes(baseline.run_aci_stream,
                                           window_size=_COUNT)["window_size"],
                          **_takes(baseline.run_aci_stream, warmup=_NONNEG,
                                   largest=_BOOL)}, None),
    }), _REQUIRED),
}


class ResolvedConfig(SimpleNamespace):
    """``validate_config``'s result: the top-level fields (a section as a
    _Part), the controller's ``spec`` (``baseline.aci_spec`` for the
    baseline), the reports' ``alpha`` and the trace ``layout``."""


def _check(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a value the library rejects fails, at the
    field the error names if it names one."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError, OverflowError) as exc:
        fld = getattr(exc, "field", None)
        raise ConfigError(f"{path}.{fld}" if fld else path, str(exc)) from exc


_EXP_MAX = math.log(sys.float_info.max)  # math.exp overflows above it


def _has_scipy() -> bool:
    """Whether the oracle model's scipy imports; only an oracle config asks,
    and its run would import scipy anyway."""
    try:
        import scipy.special  # noqa: F401
    except ImportError:
        return False
    return True


def validate_config(cfg: dict) -> ResolvedConfig:
    """Resolve ``cfg`` against ``_TOP``; a ConfigError names the first field
    at fault. Each part is built once here, so that a value its library
    rejects fails before any computation; input files fail when read."""
    _require(isinstance(cfg, dict), "", "config must be an object")
    rc = ResolvedConfig(**_resolve_fields(cfg, "", _TOP))
    for key in ("eval_window", "val_window"):
        win = getattr(rc, key)
        _require(win is None or 1 <= win[0] <= win[1] <= rc.steps, key,
                 f"must satisfy 1 <= start <= end <= steps={rc.steps}")
    stream, model, constructor = rc.stream, rc.model, rc.constructor
    losses, stretch, controller = rc.losses, rc.stretch, rc.controller
    if stream.kind != "csv":  # a generator's config checks its numbers
        _check("stream", stream.build, rc.seed, rc.steps)

    _require(model.kind != "oracle" or stream.kind == "known_quantile",
             "model.kind", "oracle model requires the known_quantile stream")
    _require(model.kind != "oracle" or _has_scipy(), "model.kind",
             "the oracle model needs scipy, which is not installed; install "
             "the 'oracle' extra: pip install 'riskcal[oracle]'")
    _require(model.kind != "linear_pinball" or stream.kind != "image",
             "model.kind", "linear model unsupported on image stream")
    # grids go with image constructors and losses, scalar labels with the rest
    image = stream.kind == "image"
    labels = "an image stream" if image else f"the scalar {stream.kind} stream"
    _require((constructor.kind == "image") == image, "constructor.kind",
             f"{constructor.kind!r} does not fit {labels}")
    for i, loss in enumerate(losses):
        _require((loss.kind in _IMAGE_LOSSES) == image, f"losses[{i}].kind",
                 f"{loss.kind!r} does not fit {labels}")
    _require(constructor.kind != "quantile_scale"
             or model.kind in ("oracle", "constant"), "constructor.kind",
             f"'quantile_scale' queries the model at every level; "
             f"{model.kind!r} answers only its taus")
    if model.kind == "linear_pinball":  # its feature count is the stream's
        _check("model", LinearPinballModel, 1, **model.fields)
    elif model.kind == "constant":
        _check("model", model.build, rc, None)
    scored = _check("constructor", constructor.build,
                    model.fields["taus"]).scored
    loss_fns = [_check(f"losses[{i}]", loss.build)
                for i, loss in enumerate(losses)]
    if image:  # each image loss checks its mask and region on a blank frame
        frame = np.broadcast_to(0.0, (stream.fields["height"],
                                      stream.fields["width"]))  # no copy
        for i, fn in enumerate(loss_fns):
            _check(f"losses[{i}]", fn, frame, FULL_SPACE)
    _require(not image or "auto" not in stretch.fields.values(),
             "stretch.beta_low", "auto bounds need a scalar-label stream")
    adaptive = _check("stretch", _stretch, rc, None).is_adaptive
    _require(not adaptive or scored, "stretch.kind",
             f"{stretch.kind!r} needs a constructor with a conformity score "
             f"(cqr), not {constructor.kind!r}")

    c, r = controller.fields, losses[0].fields["r"]
    if c.get("B") is _DERIVED:  # each loss's declared bound
        bounds = tuple(fn.bound for fn in loss_fns)
        c["B"] = bounds if controller.kind == "multi" else bounds[0]
    if controller.kind == "baseline_aci":
        _require(len(losses) == 1 and losses[0].kind == "binary", "losses",
                 "the baseline controls the binary loss only")
        _require(constructor.kind == "cqr", "constructor.kind",
                 "the baseline builds cqr intervals only")
        _require(stretch.kind == "none", "stretch.kind",
                 "the baseline applies no stretch")
        c["alpha"] = r if c["alpha"] is _DERIVED else c["alpha"]
        _require(0 < c["alpha"] < 1, "controller.alpha", "must be in (0, 1)")
        rc.spec = _check("controller", baseline.aci_spec, c["gamma"],
                         c["alpha"])
    elif controller.kind == "single":
        _require(len(losses) == 1, "losses",
                 "single controller takes exactly one loss")
        if c["theta_init"] is _DERIVED:
            # Quantile-scale calibration starts at -alpha: the raw model is
            # queried at its nominal level until the data says otherwise.
            c["theta_init"] = (-r if constructor.kind == "quantile_scale"
                               else engine.RiskSpec.theta_init)
        rc.spec = _check("controller", engine.RiskSpec, r=r, **c)
    else:  # multi
        rc.spec = _check("controller", engine.MultiRiskSpec,
                         r=tuple(loss.fields["r"] for loss in losses), **c)
        _require(not adaptive or len(losses) == 1, "stretch",
                 "adaptive stretching needs a single risk: no one loss and "
                 "target drives lambda")

    # The reports' nominal miscoverage: an MC target alpha/(1-alpha)
    # inverts to alpha = r/(1+r).
    _require(losses[0].kind != "mc" or r > -1, "losses[0].r",
             "an MC target must be > -1")
    # the loop aborts on a loss above its B; the baseline's spec (B = 1,
    # m = -inf, M = inf) meets these rules trivially
    risks = rc.spec.risks
    for i, (b, fn) in enumerate(zip(risks.B, loss_fns)):
        _require(b >= fn.bound, "controller.B",
                 f"{b} is below the declared bound {fn.bound} of "
                 f"losses[{i}]")
    for i, (t0, g, lo, hi) in enumerate(zip(
            risks.theta_init, risks.gamma, *engine._envelope(risks))):
        risk = f" (risk {i + 1})" if risks.k > 1 else ""
        # the bound lines divide the envelope by gamma * T: where either
        # overflows they read a vacuous PASS or a NaN FAIL on any data; the
        # baseline's envelope is infinite by design and has no bound lines
        _require(controller.kind == "baseline_aci"
                 or all(map(math.isfinite, (lo, hi, g * rc.steps))),
                 "controller.gamma",
                 f"{g}{risk} overflows: m - 2 gamma B = {lo}, M + 2 gamma B "
                 f"= {hi}, gamma * steps = {g * rc.steps}")
        # the theta lines check the first step's theta_pre, so a start
        # outside their bounds fails them whatever the data
        _require(t0 <= hi, "controller.theta_init",
                 f"{t0}{risk} is above M + 2 gamma B = {hi}")
        _require(not risks.two_sided or t0 >= lo, "controller.theta_init",
                 f"{t0}{risk} is below m - 2 gamma B = {lo}; two-sided "
                 f"control needs theta_init >= m - 2 gamma B")
    if stretch.kind == "error_adaptive":
        # its update takes exp(beta_loss * |loss - r|), and |loss| <= B
        x = stretch.fields["beta_loss"] * (risks.B[0] + abs(risks.r[0]))
        _require(x <= _EXP_MAX, "stretch.beta_loss",
                 f"beta_loss * max|loss - r| = {x:.6g} overflows exp "
                 f"(the limit is {_EXP_MAX:.6g})")
    rc.alpha = (r if losses[0].kind == "binary"
                else r / (1.0 + r) if losses[0].kind == "mc" else 0.1)
    # k-risk traces have always recorded the set size only
    rc.layout = ("interval" if controller.kind != "multi"
                 and constructor.kind in ("cqr", "quantile_scale") else "size")
    return rc


@dataclass
class TrialResult:
    """One finished trial: its report, its seed and its validation pinball
    loss (``sweep``'s score). The trace is not kept: it is on disk as
    ``trial_XXX/trace.csv`` (``read_trace_csv``), and ``run_trial(rc, i)``
    runs it again."""
    report: dict
    seed: int
    val_pinball: float


@dataclass
class ExperimentResult:
    """What ``run_experiment`` returns: the config, one ``TrialResult`` per
    trial, the aggregate report and the certificate lines. It holds no
    trace, so its size does not grow with the run's length."""
    config: dict
    trials: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    certificate_lines: list = field(default_factory=list)
    certificate_passed: bool = True
    out_dir: str | None = None


def run_trial(rc: ResolvedConfig, trial_index: int):
    """Run one seeded trial; returns its trace."""
    seed = rc.seed + trial_index
    stream, stream_obj = rc.stream.build(seed, rc.steps)
    model = rc.model.build(rc, stream_obj)
    taus = rc.model.fields["taus"]

    if rc.controller.kind == "baseline_aci":
        c = rc.controller.fields
        return baseline.run_aci_stream(
            stream, model, gamma=c["gamma"], alpha=c["alpha"],
            warmup=c["warmup"], window_size=c["window"],
            tau_lo=min(taus), tau_hi=max(taus), largest=c["largest"],
            n_steps=rc.steps)

    constructor = rc.constructor.build(taus)
    stretch = _stretch(rc, seed)
    loss_fns = [loss.build() for loss in rc.losses]
    if rc.controller.kind == "single":
        return engine.run_stream(stream, model, constructor, loss_fns[0],
                                 rc.spec, stretch, n_steps=rc.steps)
    return multirisk.run_multi_stream(stream, model, constructor, loss_fns,
                                      rc.spec, stretch, n_steps=rc.steps)


def _trial_report(rc: ResolvedConfig, trace) -> dict:
    window = rc.eval_window or (1, len(trace))
    report = metrics.evaluate(trace, window=window, alpha=rc.alpha).to_dict()
    if trace.loss.ndim == 2:
        sl = slice(window[0] - 1, window[1])
        report["mean_loss_per_risk"] = [
            float(np.mean(trace.loss[sl, i])) for i in range(trace.loss.shape[1])]
    return report


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def certificate_for_trace(trace, rc: ResolvedConfig, label: str) -> list:
    """Bound-check verdict lines for one trace: (name, verdict, detail).

    Every line comes from one walk of the trace (``engine._walk``); each
    controller kind keeps the line names it has always written. A recursion
    line replays the update function the trial's loop applied. The bound
    lines of a vacuous loss contract are informational (INFO_PASS /
    INFO_FAIL), and so are a two-sided k-risk run's lower lines when its
    trace has a conflict step; their detail then gives the count.
    """
    spec, kind = rc.spec, rc.controller.kind
    lines = []
    bounds = []     # (name, (ok, violation)) per deterministic bound
    lower = []      # the same for a k-risk run's lower lines
    recursion = []  # the same for the replayed update, if the line exists
    guaranteed = True
    conflicts = 0
    if kind == "single":
        loss_fn = rc.losses[0].build()
        guaranteed = engine.loss_contract_guaranteed(loss_fn, spec)
        lines.append((f"{label} loss_contract",
                      "GUARANTEED" if guaranteed else "NOT_GUARANTEED",
                      f"full={loss_fn.full_space_loss} r={spec.r} "
                      f"empty_min={loss_fn.empty_set_loss_min}"))
        walk = engine._walk(trace, spec, engine.control_update(spec))
        # one line for both sides of the theta envelope
        bounds = [("theta_bound", walk.theta),
                  ("risk_bound", walk.two_sided_risk)]
        recursion = [("recursion", walk.recursion)]
    elif kind == "multi":
        walk = engine._walk(trace, spec)
        bounds = [("upper_theta_bound", walk.upper_theta),
                  ("upper_risk_bound", walk.upper_risk)]
        if spec.two_sided:
            conflicts = walk.conflicts
            lower = [("lower_theta_bound", walk.lower_theta),
                     ("two_sided_risk_bound", walk.two_sided_risk)]
    else:  # baseline_aci
        c = rc.controller.fields
        walk = engine._walk(trace, update=baseline.aci_update(
            c["gamma"], c["alpha"], c["warmup"]))
        recursion = [("alpha_recursion", walk.recursion)]

    # the bounds of a vacuous guarantee, and the lower lines of a trace with
    # a conflict step, are informational; a recursion line never is
    note = f", {conflicts} conflict steps" if conflicts else ""
    for info, tail, checks in (("" if guaranteed else "INFO_", "", bounds),
                               ("INFO_" if conflicts else "", note, lower),
                               ("", "", recursion)):
        for name, (ok, viol) in checks:
            lines.append((f"{label} {name}", info + ("PASS" if ok else "FAIL"),
                          f"max violation {viol:.3e}{tail}"))
    return lines


def certificate_passed(lines: list) -> bool:
    return all(verdict != "FAIL" for _, verdict, _ in lines)


def certificate_text(lines: list) -> str:
    """certificate.txt for these lines: one per check, then the verdict."""
    overall = "PASS" if certificate_passed(lines) else "FAIL"
    checks = "".join(f"{name}: {verdict} ({detail})\n"
                     for name, verdict, detail in lines)
    return checks + f"overall: {overall}\n"


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

_PER_RISK_COLUMNS = ("loss", "theta_pre", "theta_post")


def _chained(pre, post) -> bool:
    """Whether each row's theta_post is, bit for bit, the next row's
    theta_pre, as in every trace the loop records."""
    return (pre.dtype == post.dtype == np.float64 and pre.shape == post.shape
            and np.array_equal(post[:-1].view(np.int64),
                               pre[1:].view(np.int64)))


def write_trace_csv(trace, path, layout: str = "interval") -> None:
    """Fixed-column trace export, one row per step.

    Columns: step, then loss, theta_pre and theta_post (one column per risk,
    suffixed _1.._k, when the trace has k-risk columns), then the set as
    set_lo,set_hi (``layout="interval"``) or set_size (``layout="size"``),
    then covered; any other layout is a ValueError. Floats are written with
    17 significant digits, so they read back exactly. When every row's
    theta_post is the next row's theta_pre bit for bit, each parameter is
    formatted once and written twice. Rows are converted to Python values
    and written one chunk of rows at a time (``engine._spans``), so the
    export holds no whole-column copy of the trace.
    """
    names, cols = [], []
    for name in _PER_RISK_COLUMNS:
        col = getattr(trace, name)
        if col.ndim == 1:
            names.append(name)
            cols.append(col)
        else:
            names += [f"{name}_{i + 1}" for i in range(col.shape[1])]
            cols += list(col.T)
    if layout == "interval":
        names += ["set_lo", "set_hi"]
        cols += [trace.lo, trace.hi]
    elif layout == "size":
        names.append("set_size")
        cols.append(trace.size)
    else:
        raise ValueError(f"layout {layout!r}: a trace's layout is "
                         "'interval' or 'size'")
    cols.append(trace.covered)
    n = len(trace)
    pre, post = trace.theta_pre, trace.theta_post
    # each row's theta_pre cells, and its theta_post cells, are one string
    k = 1 if post.ndim == 1 else post.shape[1]
    fmt = "%.17g," * k
    j = names.index("theta_pre" if post.ndim == 1 else "theta_pre_1")
    head, tail = cols[:j], cols[j + 2 * k:]
    pre_cols, post_cols = cols[j:j + k], cols[j + k:j + 2 * k]
    row = ("%d," + "%.17g," * len(head) + "%s%s"
           + "%.17g," * (len(tail) - 1) + "%d\n")
    chained = n > 0 and _chained(pre, post)
    with open(Path(path), "w", newline="") as fh:
        fh.write(",".join(["step", *names, "covered"]) + "\n")
        for a, b in engine._spans(n):
            posts = map(fmt.__mod__, zip(
                *[col[a:b].tolist() for col in post_cols]))
            if chained:
                # a row's theta_pre cells are the previous row's theta_post
                # cells: only the chunk's first row formats its own
                posts = list(posts)
                pres = [fmt % tuple(pre.reshape(n, k)[a].tolist()),
                        *posts[:-1]]
            else:
                pres = map(fmt.__mod__, zip(
                    *[col[a:b].tolist() for col in pre_cols]))
            fh.writelines(map(row.__mod__, zip(
                range(a + 1, b + 1), *[col[a:b].tolist() for col in head],
                pres, posts, *[col[a:b].tolist() for col in tail])))


def read_trace_csv(path):
    """Read a trace CSV back into a StreamTrace; the inverse of
    write_trace_csv. The label and group columns are not exported and come
    back as NaN and -1, and a size-layout trace's lo and hi as NaN: these
    placeholders are read-only broadcasts of one value, which hold no
    memory per row. A ``step`` column that is not 1..T, for T rows, or a
    ``covered`` column that is not 0 or 1, is a ValueError naming the first
    row at fault; so is a missing column (a k-risk column is missing when
    one of its ``_1.._k`` columns is, for the widest k of the three) and
    rows of another width than the header, each naming the column.

    The float columns are views of the one parsed (T, columns) array, so
    the trace holds one copy of the file's numbers; a k-risk column is a
    view too when its k columns are adjacent, as write_trace_csv writes
    them. The body is parsed from the path, which numpy reads in blocks
    (through a handle it takes one line at a time)."""
    with open(Path(path)) as fh:
        header = fh.readline().strip().split(",")
    with warnings.catch_warnings():
        # a header-only file is a trace of 0 rows
        warnings.filterwarnings("ignore", "loadtxt: input contained")
        try:
            body = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    width = body.shape[1] if len(body) else len(header)
    if width != len(header):
        at = (f"no field for column {header[width]!r}" if width < len(header)
              else f"fields past the last column {header[-1]!r}")
        raise ValueError(f"{path}: rows hold {width} fields for "
                         f"{len(header)} columns: {at}")
    body = body.reshape(-1, len(header))
    cols = dict(zip(header, body.T))

    def need(name):
        if name not in cols:
            raise ValueError(f"{path}: no {name!r} column")
        return cols[name]

    n = len(body)
    bad = np.flatnonzero(need("step") != np.arange(1, n + 1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: row {i + 1} has step "
                         f"{cols['step'][i]:.17g}; steps run 1..{n}")
    covered = need("covered")
    flags = covered.astype(bool)
    bad = np.flatnonzero(flags != covered)
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: row {i + 1} has covered "
                         f"{covered[i]:.17g}; covered is 0 or 1")

    # a k-risk trace has the columns name_1..name_k of each per-risk name
    k = max(sum(1 for c in cols if c.startswith(f"{name}_"))
            for name in ("loss", "theta_pre", "theta_post"))

    def per_risk(name):
        if name in cols or not k:
            return need(name)
        names = [f"{name}_{i + 1}" for i in range(k)]
        j = header.index(names[0]) if names[0] in cols else 0
        if header[j:j + k] == names:
            return body[:, j:j + k]
        return np.column_stack([need(c) for c in names])

    nan = np.broadcast_to(math.nan, n)
    lo, hi = cols.get("set_lo", nan), cols.get("set_hi", nan)
    if "set_size" in cols:
        size = cols["set_size"]
    else:
        # NaN endpoints mark the empty set, whose size is 0
        size = np.where(np.isnan(lo), 0.0, hi - lo)
    return engine.StreamTrace(
        loss=per_risk("loss"), theta_pre=per_risk("theta_pre"),
        theta_post=per_risk("theta_post"),
        covered=flags, size=size, lo=lo, hi=hi,
        y=nan, group=np.broadcast_to(np.int64(-1), n))


def recompute_certificate(out_dir) -> list:
    """Re-derive the certificate lines from exported traces alone. A trace
    with other than ``steps`` rows is a ValueError; that of a CSV stream,
    which may end early, may have fewer."""
    out = Path(out_dir)
    with open(out / "config.json") as fh:
        rc = validate_config(json.load(fh))
    lines = []
    for trial_dir in sorted(out.glob("trial_*")):
        lines.extend(_trace_certificate(rc, trial_dir))
    return lines


def _trace_certificate(rc: ResolvedConfig, trial_dir: Path) -> list:
    """The certificate lines of one exported trace. The trace is released
    on return, before the next one is read."""
    path = trial_dir / "trace.csv"
    trace = read_trace_csv(path)
    n, csv_run = len(trace), rc.stream.kind == "csv"
    if n > rc.steps or (n < rc.steps and not csv_run):
        raise ValueError(f"{path}: {n} rows for a run of "
                         f"{'at most ' if csv_run else ''}{rc.steps} "
                         f"steps")
    return certificate_for_trace(trace, rc, trial_dir.name)


# ---------------------------------------------------------------------------
# Experiment and sweep drivers
# ---------------------------------------------------------------------------

def _aggregate_reports(reports: list) -> dict:
    keys = ("coverage", "mc_risk", "msl", "delta_coverage", "mean_loss",
            "mean_length")
    agg = {"trials": len(reports)}
    for key in keys:
        vals = np.array([r[key] for r in reports], dtype=float)
        finite = vals[~np.isnan(vals)]
        agg[key] = {
            "mean": float(finite.mean()) if finite.size else math.nan,
            "std": float(finite.std()) if finite.size else math.nan,
            "n": int(finite.size),
        }
    if reports and "mean_loss_per_risk" in reports[0]:
        per = np.array([r["mean_loss_per_risk"] for r in reports], dtype=float)
        agg["mean_loss_per_risk"] = {
            "mean": [float(v) for v in per.mean(axis=0)],
            "std": [float(v) for v in per.std(axis=0)],
        }
    return agg


@_reads_inputs_once
def run_experiment(cfg: dict, out_dir=None) -> ExperimentResult:
    """Run all trials, write artifacts, and assemble the certificate.

    Trials run one after another, and each trial's trace is exported and
    released before the next starts, so the call holds at most one trace.
    The result keeps each trial's report and score, not its trace."""
    rc = validate_config(cfg)
    _check_input_rows(rc)
    result = ExperimentResult(config=cfg)
    out = Path(out_dir if out_dir is not None else rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.out_dir = str(out)
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    reports = []
    try:
        for i in range(rc.trials):
            trial, lines = _run_and_export(rc, i, out)
            result.trials.append(trial)
            result.certificate_lines.extend(lines)
            reports.append(trial.report)
    except KeyboardInterrupt:
        # Flush whatever finished, then let the interrupt propagate.
        _flush_summary(result, reports, out)
        raise
    _flush_summary(result, reports, out)
    return result


def _run_and_export(rc: ResolvedConfig, i: int, out: Path) -> tuple:
    """Run trial i and write its trace.csv and report.json; returns its
    TrialResult and certificate lines. The trace is released on return,
    before the next trial starts."""
    trace = run_trial(rc, i)
    report = _trial_report(rc, trace)
    trial_dir = out / f"trial_{i:03d}"
    trial_dir.mkdir(exist_ok=True)
    write_trace_csv(trace, trial_dir / "trace.csv", rc.layout)
    with open(trial_dir / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    trial = TrialResult(report, rc.seed + i, _val_pinball(rc, trace))
    return trial, certificate_for_trace(trace, rc, trial_dir.name)


_REPORT_COLUMNS = ("coverage", "mc_risk", "msl", "delta_coverage",
                   "delta_coverage_scaled", "mean_loss", "mean_length")


def _write_reports_csv(reports: list, out: Path) -> None:
    """Plot-ready flat rows, one per trial."""
    with open(out / "reports.csv", "w", newline="") as fh:
        fh.write("trial," + ",".join(_REPORT_COLUMNS)
                 + ",window_start,window_end\n")
        for i, rep in enumerate(reports):
            vals = [format(float(rep[c]), ".10g") for c in _REPORT_COLUMNS]
            fh.write(f"{i}," + ",".join(vals)
                     + f",{rep['window'][0]},{rep['window'][1]}\n")


def _flush_summary(result: ExperimentResult, reports: list, out: Path) -> None:
    result.aggregate = _aggregate_reports(reports)
    with open(out / "aggregate.json", "w") as fh:
        json.dump(result.aggregate, fh, indent=2, sort_keys=True)
    _write_reports_csv(reports, out)
    result.certificate_passed = certificate_passed(result.certificate_lines)
    with open(out / "certificate.txt", "w") as fh:
        fh.write(certificate_text(result.certificate_lines))


def _val_pinball(rc: ResolvedConfig, trace) -> float:
    """Validation-window pinball loss of the calibrated interval endpoints:
    the mean over the window's rows of the two endpoints' mean loss, inf if
    an endpoint or a label is not finite."""
    window = rc.val_window or rc.eval_window or (1, len(trace))
    taus = rc.model.fields["taus"]
    sl = slice(window[0] - 1, window[1])
    lo, hi, y = trace.lo[sl], trace.hi[sl], trace.y[sl]
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()
            and np.isfinite(y).all()):
        return math.inf
    terms = 0.5 * (pinball_loss(y, lo, min(taus))
                   + pinball_loss(y, hi, max(taus)))
    # cumsum adds left to right from 0.0, as a running total does; the
    # pairwise sum of np.sum could differ in the last bits
    total = np.cumsum(np.concatenate(([0.0], terms)))[-1]
    return float(total) / max(len(y), 1)


def _sweep_point(cfg: dict, param: str, value) -> tuple:
    """``cfg`` with the field ``param`` set to ``value``, and its resolution.
    The field may be left out of ``cfg``; a field its section's kind does not
    take is an unknown field."""
    point = node = json.loads(json.dumps(cfg))
    section, _, name = param.rpartition(".")
    try:
        for part in filter(None, section.split(".")):
            node = node.setdefault(part, {})
        node[name] = value
    except (AttributeError, TypeError):  # a path through a list or a value
        raise ConfigError(param, "no such config field") from None
    try:
        return point, validate_config(point)
    except ConfigError as exc:
        raise ConfigError(param, f"at {value!r}: {exc}") from exc


@_reads_inputs_once
def sweep(cfg: dict, param: str, grid: list, out_dir=None) -> dict:
    """Grid sweep over one config field, ranked by validation pinball loss.

    ``param`` is any field of a section's kind, set in ``cfg`` or left at its
    default, but for ``out_dir``; every point is validated, against its
    input files' rows too, before the first one runs, and two values that
    name one point directory (``0.01`` and ``1e-2``) are a ConfigError.
    Every grid point reruns the full experiment with the same seeds; ties in
    the validation score select the smaller parameter value. The points
    share one read of each CSV stream; a point whose ``stream`` section
    differs (a ``stream.*`` sweep) reads its own. Returns the ranking table
    and writes ranking.csv / sweep.json under the out dir.
    """
    if not grid:
        raise ConfigError(param, "empty sweep grid")
    rc = validate_config(cfg)
    _require(param not in _TOP or isinstance(_TOP[param][0], _Type), param,
             "is a section; sweep one of its fields")
    _require(param != "out_dir", param,
             "every point writes under the sweep's own out dir")
    # one directory per point; a value holding a "/" (a path) stays one name
    names = [str(value).replace("%", "%25").replace("/", "%2F")
             for value in grid]
    for j, name in enumerate(names):
        i = names.index(name)
        _require(i == j, param, f"grid values {grid[i]!r} and {grid[j]!r} "
                 f"name one point directory, {name!r}")
    points = [_sweep_point(cfg, param, value) for value in grid]
    for _, sub_rc in points:
        _check_input_rows(sub_rc)
    out = Path(out_dir if out_dir is not None else rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for value, name, (sub_cfg, _) in zip(grid, names, points):
        sub_out = out / f"sweep_{param.replace('.', '_')}_{name}"
        res = run_experiment(sub_cfg, sub_out)
        rows.append({
            "value": value,
            "val_pinball": float(np.mean([t.val_pinball
                                          for t in res.trials])),
            "coverage": res.aggregate["coverage"]["mean"],
            "msl": res.aggregate["msl"]["mean"],
            "mean_length": res.aggregate["mean_length"]["mean"],
            "certificate": "PASS" if res.certificate_passed else "FAIL",
        })

    ranked = sorted(rows, key=lambda r: (r["val_pinball"], r["value"]))
    selection = {"param": param, "selected": ranked[0]["value"],
                 "ranking": ranked}
    with open(out / "sweep.json", "w") as fh:
        json.dump(selection, fh, indent=2, sort_keys=True)
    with open(out / "ranking.csv", "w") as fh:
        fh.write("value,val_pinball,coverage,msl,mean_length,certificate\n")
        for r in ranked:
            fh.write(f"{r['value']},{r['val_pinball']:.10g},"
                     f"{r['coverage']:.10g},{r['msl']:.10g},"
                     f"{r['mean_length']:.10g},{r['certificate']}\n")
    return selection
