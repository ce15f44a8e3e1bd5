"""Experiment runner: wire a stream, model, constructor, losses, stretch and
controller from a JSON config, run trials across seeds, and emit traces,
reports and bound certificates.

Artifacts per run directory:
    config.json          resolved configuration
    trial_XXX/trace.csv  one row per step, fixed column order
    trial_XXX/report.json
    aggregate.json       mean/std across trials
    certificate.txt      PASS/FAIL per deterministic bound check

Trials execute sequentially in trial order; each trial derives its own seed
(base seed + trial index) and shares no mutable state with the others, so
identical configs produce byte-identical artifacts. One driver call
(``run_experiment``, or ``sweep`` with all its points) reads each CSV stream
once; its trials and points share that read-only snapshot of the file.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baseline, engine, losses as losses_mod, metrics, multirisk
from .models import ConstantModel, LinearPinballModel, ReplayModel, pinball_loss
from .sets import (ConstantHeuristic, CqrConstructor, ImageIntervalConstructor,
                   PreviousResidualsHeuristic, QuantileScaleConstructor,
                   RunningResidualHeuristic)
from .stretching import Stretch
from .streams import (CsvInputError, CsvStreamConfig, ImageStreamConfig,
                      KnownQuantileConfig, KnownQuantileStream,
                      SyntheticConfig, csv_ingest, image_stream,
                      synthetic_stream)

SCHEMA_VERSION = 1

_STREAM_KINDS = ("synthetic", "known_quantile", "image", "csv")
_MODEL_KINDS = ("linear_pinball", "oracle", "constant", "replay")
_CONSTRUCTOR_KINDS = ("cqr", "quantile_scale", "image")
_LOSS_KINDS = ("binary", "mc", "image_miscoverage", "center_failure")
_CONTROLLER_KINDS = ("single", "multi", "baseline_aci")
_HEURISTIC_KINDS = ("constant", "residual_model", "previous_residuals")


class ConfigError(ValueError):
    """Configuration rejected before any computation; carries a field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    validate_config(cfg)
    return cfg


def _section(cfg: dict, key: str, default=None) -> dict:
    value = cfg.get(key, {} if default is None else default)
    _require(isinstance(value, dict), key, "must be an object")
    return value


def _probe(path: str, build, *args) -> None:
    """Build one part of the config once, so a field of the wrong type or
    value is reported before any computation."""
    try:
        build(*args)
    except KeyError as exc:
        raise ConfigError(path, f"missing field {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def validate_config(cfg: dict) -> None:
    """Check the whole config tree; raises ConfigError with a field path."""
    _require(isinstance(cfg, dict), "", "config must be an object")
    _require(cfg.get("schema_version") == SCHEMA_VERSION,
             "schema_version", f"must be {SCHEMA_VERSION}")
    steps = cfg.get("steps")
    _require(isinstance(steps, int) and steps >= 1, "steps",
             "must be an integer >= 1")
    trials = cfg.get("trials")
    _require(isinstance(trials, int) and trials >= 1, "trials",
             "must be an integer >= 1")
    _require(isinstance(cfg.get("seed", 0), int), "seed", "must be an integer")

    for key in ("eval_window", "val_window"):
        win = cfg.get(key)
        if win is not None:
            _require(isinstance(win, (list, tuple)) and len(win) == 2
                     and all(isinstance(w, int) for w in win),
                     key, "must be [start, end] with integer steps")
            _require(1 <= win[0] <= win[1] <= steps, key,
                     f"must satisfy 1 <= start <= end <= steps={steps}")

    stream = _section(cfg, "stream")
    _require(stream.get("kind") in _STREAM_KINDS, "stream.kind",
             f"must be one of {_STREAM_KINDS}")
    _probe("stream", _stream_config, cfg, 0)
    model = _section(cfg, "model")
    _require(model.get("kind") in _MODEL_KINDS, "model.kind",
             f"must be one of {_MODEL_KINDS}")
    if model.get("kind") == "oracle":
        _require(stream.get("kind") == "known_quantile", "model.kind",
                 "oracle model requires the known_quantile stream")
    if model.get("kind") == "replay":
        _require(isinstance(model.get("path"), str), "model.path",
                 "must be a file path")
    elif model.get("kind") == "linear_pinball":
        _probe("model", _linear_pinball, model, 1)
    elif model.get("kind") == "constant":
        _probe("model", _constant_model, model)
    constructor = _section(cfg, "constructor")
    _require(constructor.get("kind") in _CONSTRUCTOR_KINDS, "constructor.kind",
             f"must be one of {_CONSTRUCTOR_KINDS}")
    heur = constructor.get("heuristic")
    if heur is not None:
        _require(isinstance(heur, dict), "constructor.heuristic",
                 "must be an object")
        _require(heur.get("kind") in _HEURISTIC_KINDS,
                 "constructor.heuristic.kind",
                 f"must be one of {_HEURISTIC_KINDS}")
    _probe("constructor", _build_constructor, cfg)

    loss_list = cfg.get("losses")
    _require(isinstance(loss_list, list) and len(loss_list) >= 1, "losses",
             "must be a nonempty list")
    for i, spec in enumerate(loss_list):
        _require(isinstance(spec, dict), f"losses[{i}]", "must be an object")
        _require(spec.get("kind") in _LOSS_KINDS, f"losses[{i}].kind",
                 f"must be one of {_LOSS_KINDS}")
        _require(isinstance(spec.get("r"), (int, float)), f"losses[{i}].r",
                 "target risk level is required")
        _probe(f"losses[{i}]", _build_loss, spec)

    stretch_spec = _section(cfg, "stretch", {"kind": "none"})
    try:
        stretch = _build_stretch(stretch_spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError("stretch", str(exc)) from exc

    controller = _section(cfg, "controller")
    kind = controller.get("kind")
    _require(kind in _CONTROLLER_KINDS, "controller.kind",
             f"must be one of {_CONTROLLER_KINDS}")
    if kind == "single":
        _require(len(loss_list) == 1, "losses",
                 "single controller takes exactly one loss")
        try:
            _single_spec(cfg)
        except (ValueError, TypeError) as exc:
            raise ConfigError("controller", str(exc)) from exc
    elif kind == "multi":
        try:
            _multi_spec(cfg)
        except (ValueError, TypeError) as exc:
            raise ConfigError("controller", str(exc)) from exc
        _require(not stretch.is_adaptive or len(loss_list) == 1, "stretch",
                 "adaptive stretching needs a single risk: no one loss and "
                 "target drives lambda")
    else:  # baseline_aci
        _require(len(loss_list) == 1 and loss_list[0]["kind"] == "binary",
                 "losses", "the baseline controls the binary loss only")
        gamma = controller.get("gamma", 0.05)
        _require(isinstance(gamma, (int, float)) and gamma > 0,
                 "controller.gamma", "must be a number > 0")
        window = controller.get("window", 500)
        _require(isinstance(window, int) and window >= 1, "controller.window",
                 "must be an integer >= 1")
        alpha = controller.get("alpha", loss_list[0]["r"])
        _require(isinstance(alpha, (int, float)) and 0 < alpha < 1,
                 "controller.alpha", "must be a number in (0, 1)")
        _probe("controller", _aci_params, cfg)


def _single_spec(cfg: dict) -> engine.RiskSpec:
    c = cfg["controller"]
    return engine.RiskSpec(
        r=float(cfg["losses"][0]["r"]),
        gamma=float(c.get("gamma", 0.05)),
        m=float(c.get("m", -9999.0)),
        M=float(c.get("M", 9999.0)),
        B=float(c.get("B", _default_bound(cfg["losses"][0]))),
        theta_init=float(c.get("theta_init",
                               _default_theta_init(cfg["constructor"], cfg))),
    )


def _multi_spec(cfg: dict) -> engine.MultiRiskSpec:
    c = cfg["controller"]
    k = len(cfg["losses"])
    return engine.MultiRiskSpec(
        r=tuple(float(s["r"]) for s in cfg["losses"]),
        gamma=_vec(c.get("gamma", 0.05), k),
        m=_vec(c.get("m", -9999.0), k),
        M=_vec(c.get("M", 9999.0), k),
        B=c.get("B", tuple(_default_bound(s) for s in cfg["losses"])),
        theta_init=_vec(c.get("theta_init", 0.0), k),
        aggregation=c.get("aggregation", "max"),
        two_sided=bool(c.get("two_sided", False)),
    )


def _vec(v, k: int):
    if isinstance(v, (int, float)):
        return (float(v),) * k
    return tuple(float(x) for x in v)


def _default_bound(loss_spec: dict) -> float:
    if loss_spec["kind"] == "mc":
        return float(loss_spec.get("cap", 50))
    return 1.0


def _default_theta_init(constructor: dict, cfg: dict) -> float:
    # Quantile-scale calibration starts at -alpha: the raw model is queried
    # at its nominal level until the data says otherwise.
    if constructor.get("kind") == "quantile_scale":
        return -float(cfg["losses"][0]["r"])
    return 0.0


def _build_stretch(spec: dict, auto_scale: float | None = None) -> Stretch:
    low, high = spec.get("beta_low", 0.0), spec.get("beta_high", 0.0)
    if low == "auto" or high == "auto":
        if auto_scale is None:
            # validation probe: the actual scale is resolved per trial
            low, high = -1.0, 1.0
        else:
            low, high = -auto_scale, auto_scale
    return Stretch(
        kind=spec.get("kind", "none"),
        beta_score=float(spec.get("beta_score", 0.0)),
        beta_loss=float(spec.get("beta_loss", 0.0)),
        beta_low=float(low),
        beta_high=float(high),
    )


def _resolve_auto_stretch_scale(cfg: dict, seed: int) -> float | None:
    """Clipping scale for "auto" beta bounds: the mean absolute successive
    label difference over a warm-up prefix of this trial's stream."""
    spec = cfg.get("stretch", {"kind": "none"})
    if spec.get("beta_low") != "auto" and spec.get("beta_high") != "auto":
        return None
    if cfg["stream"]["kind"] == "image":
        raise ConfigError("stretch.beta_low",
                          "auto bounds need a scalar-label stream")
    from .streams import successive_difference_scale
    probe, _ = _build_stream(cfg, seed)
    n = max(10, min(2000, cfg["steps"] // 4))
    ys = [item[1] for item, _ in zip(probe, range(n))]
    return successive_difference_scale(ys)


def _stream_config(cfg: dict, seed: int):
    spec = cfg["stream"]
    kind = spec["kind"]
    if kind == "synthetic":
        return SyntheticConfig(
            seed=seed,
            n_features=int(spec.get("n_features", 5)),
            group_mean_length=float(spec.get("group_mean_length", 500.0)),
            group_length_std=float(spec.get("group_length_std", 10.0)),
            scale_mean=float(spec.get("scale_mean", 20.0)),
            scale_var=float(spec.get("scale_var", 10.0)),
        )
    if kind == "known_quantile":
        return KnownQuantileConfig(
            seed=seed,
            n_features=int(spec.get("n_features", 1)),
            slope=float(spec.get("slope", 2.0)),
            intercept=float(spec.get("intercept", 0.0)),
            noise_std=float(spec.get("noise_std", 1.0)),
        )
    if kind == "image":
        return ImageStreamConfig(
            seed=seed,
            height=int(spec.get("height", 16)),
            width=int(spec.get("width", 16)),
            base_sigma=float(spec.get("base_sigma", 1.0)),
            shift_period=int(spec.get("shift_period", 0)),
            shift_factor=float(spec.get("shift_factor", 1.0)),
            frame_corr=float(spec.get("frame_corr", 0.5)),
        )
    return CsvStreamConfig(
        path=spec["path"],
        timestamp_col=spec.get("timestamp_col", ""),
        target_col=spec["target_col"],
        feature_cols=list(spec.get("feature_cols", [])),
        warmup=int(spec.get("warmup", 8000)),
        augment_time=bool(spec.get("augment_time", True)),
        timestamp_format=spec.get("timestamp_format", "iso"),
    )


# The CSV streams read by the driver call in progress, keyed by their
# resolved ``stream`` section; None outside a driver call.
_INPUTS: contextvars.ContextVar = contextvars.ContextVar(
    "riskcal_inputs", default=None)


def _reads_inputs_once(driver):
    """Make one call of ``driver`` read each CSV stream once.

    The outermost driver call (a sweep, or a run_experiment outside one)
    owns the scope and nested calls share it, so the auto-stretch probes,
    trials and grid points of one call iterate one read-only CsvStream per
    distinct ``stream`` section. Nothing outlives the call: the next call
    reads the file again.
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


def _read_input(section: str, read, arg):
    """``read(arg)`` for an input file the config section names; a file
    that cannot be read or does not fit the config is a ConfigError."""
    try:
        return read(arg)
    except OSError as exc:
        raise ConfigError(f"{section}.path",
                          f"cannot read {exc.filename}: "
                          f"{exc.strerror or exc}") from exc
    except ValueError as exc:
        fld = exc.field if isinstance(exc, CsvInputError) else "path"
        raise ConfigError(f"{section}.{fld}", str(exc)) from exc


def _build_stream(cfg: dict, seed: int):
    kind = cfg["stream"]["kind"]
    steps = cfg["steps"]
    sc = _stream_config(cfg, seed)
    if kind == "synthetic":
        return synthetic_stream(sc, steps), None
    if kind == "known_quantile":
        kq = KnownQuantileStream(sc)
        return kq.generate(steps), kq
    if kind == "image":
        return image_stream(sc, steps), None
    # csv: the file is the stream; the driver call reads it once.
    memo = _INPUTS.get()
    memo = {} if memo is None else memo
    key = json.dumps(cfg["stream"], sort_keys=True)
    if key not in memo:
        memo[key] = _read_input("stream", csv_ingest, sc)
    cs = memo[key]
    return iter(cs), cs


def _stream_feature_count(cfg: dict, stream_obj) -> int:
    kind = cfg["stream"]["kind"]
    if kind == "synthetic":
        return int(cfg["stream"].get("n_features", 5))
    if kind == "known_quantile":
        return int(cfg["stream"].get("n_features", 1))
    if kind == "csv":
        return stream_obj.x.shape[1]
    raise ConfigError("model", f"linear model unsupported on {kind} stream")


def _linear_pinball(spec: dict, n_features: int):
    return LinearPinballModel(
        n_features=n_features,
        taus=tuple(spec.get("taus", (0.05, 0.95))),
        lr=float(spec.get("lr", 0.1)),
        fit_intercept=bool(spec.get("fit_intercept", True)),
        n_sgd_steps=int(spec.get("n_sgd_steps", 1)),
    )


def _constant_model(spec: dict):
    values = {float(k): float(v) for k, v in spec.get("values", {}).items()}
    return ConstantModel(values, default=float(spec.get("default", 0.0)))


def _build_model(cfg: dict, stream_obj):
    spec = cfg["model"]
    kind = spec["kind"]
    if kind == "linear_pinball":
        return _linear_pinball(spec, _stream_feature_count(cfg, stream_obj))
    if kind == "oracle":
        return stream_obj.oracle_model()
    if kind == "replay":
        model = _read_input("model", ReplayModel.from_csv, spec["path"])
        missing = [t for t in spec.get("taus", (0.05, 0.95))
                   if float(t) not in model.taus]
        _require(not missing, "model.taus",
                 f"levels {missing} are not replayed by {spec['path']}; "
                 f"it has {model.taus}")
        return model
    return _constant_model(spec)


def _build_constructor(cfg: dict):
    spec = cfg["constructor"]
    kind = spec["kind"]
    if kind == "cqr":
        taus = cfg["model"].get("taus", (0.05, 0.95))
        return CqrConstructor(tau_lo=float(min(taus)), tau_hi=float(max(taus)))
    if kind == "quantile_scale":
        return QuantileScaleConstructor()
    heur = spec.get("heuristic", {"kind": "previous_residuals"})
    hk = heur.get("kind", "previous_residuals")
    if hk == "constant":
        heuristic = ConstantHeuristic(float(heur.get("value", 1.0)))
    elif hk == "residual_model":
        heuristic = RunningResidualHeuristic(float(heur.get("decay", 0.1)))
    else:
        heuristic = PreviousResidualsHeuristic(int(heur.get("window", 5)))
    return ImageIntervalConstructor(heuristic)


def _build_loss(spec: dict):
    kind = spec["kind"]
    if kind == "binary":
        return losses_mod.BinaryLossFn()
    if kind == "mc":
        return losses_mod.McLossFn(cap=int(spec.get("cap", 50)))
    mask = spec.get("mask")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    if kind == "image_miscoverage":
        return losses_mod.ImageMiscoverageFn(mask=mask)
    region = spec.get("region")
    return losses_mod.CenterFailureFn(
        region=tuple(region) if region else None,
        threshold=float(spec.get("threshold", 0.6)),
        mask=mask,
    )


@dataclass
class TrialResult:
    trace: object
    report: dict
    seed: int


@dataclass
class ExperimentResult:
    config: dict
    trials: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    certificate_lines: list = field(default_factory=list)
    certificate_passed: bool = True
    out_dir: str | None = None


def _nominal_alpha(cfg: dict) -> float:
    first = cfg["losses"][0]
    if first["kind"] == "binary":
        return float(first["r"])
    if first["kind"] == "mc":
        # MC target alpha/(1-alpha) inverts to alpha = r/(1+r).
        r = float(first["r"])
        return r / (1.0 + r)
    return 0.1


def _aci_params(cfg: dict) -> dict:
    c = cfg["controller"]
    return {"gamma": float(c.get("gamma", 0.05)),
            "alpha": float(c.get("alpha", cfg["losses"][0]["r"])),
            "warmup": int(c.get("warmup", 10))}


def run_trial(cfg: dict, trial_index: int):
    """Run one seeded trial; returns (trace, kind_tag)."""
    seed = int(cfg.get("seed", 0)) + trial_index
    stream, stream_obj = _build_stream(cfg, seed)
    model = _build_model(cfg, stream_obj)
    controller = cfg["controller"]
    kind = controller["kind"]

    if kind == "baseline_aci":
        taus = cfg["model"].get("taus", (0.05, 0.95))
        trace = baseline.run_aci_stream(
            stream, model, **_aci_params(cfg),
            window_size=int(controller.get("window", 500)),
            tau_lo=float(min(taus)), tau_hi=float(max(taus)),
            largest=bool(controller.get("largest", False)),
            n_steps=cfg["steps"])
        return trace, kind

    constructor = _build_constructor(cfg)
    stretch = _build_stretch(cfg.get("stretch", {"kind": "none"}),
                             _resolve_auto_stretch_scale(cfg, seed))
    loss_fns = [_build_loss(s) for s in cfg["losses"]]
    for fn in loss_fns:
        fn.reset()
    if kind == "single":
        trace = engine.run_stream(stream, model, constructor, loss_fns[0],
                                  _single_spec(cfg), stretch,
                                  n_steps=cfg["steps"])
    else:
        trace = multirisk.run_multi_stream(stream, model, constructor,
                                           loss_fns, _multi_spec(cfg), stretch,
                                           n_steps=cfg["steps"])
    return trace, kind


def _trial_report(cfg: dict, trace) -> dict:
    window = tuple(cfg.get("eval_window") or (1, len(trace)))
    alpha = _nominal_alpha(cfg)
    report = metrics.evaluate(trace, window=window, alpha=alpha).to_dict()
    if trace.loss.ndim == 2:
        sl = slice(window[0] - 1, window[1])
        report["mean_loss_per_risk"] = [
            float(np.mean(trace.loss[sl, i])) for i in range(trace.loss.shape[1])]
    return report


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _both(*results):
    """One verdict from several checks: all must hold; the worst violation."""
    return all(ok for ok, _ in results), max(viol for _, viol in results)


def certificate_for_trace(trace, cfg: dict, kind: str, label: str) -> list:
    """Bound-check verdict lines for one trace: (name, verdict, detail).

    Every line comes from the k-general checks in ``engine``; each controller
    kind keeps the line names it has always written. A recursion line
    replays the update function the trial's loop applied.
    """
    lines = []
    bounds = []       # (name, (ok, violation)) per deterministic bound
    recursion = None  # (name, update function)
    guaranteed = True
    if kind == "single":
        spec = _single_spec(cfg)
        loss_fn = _build_loss(cfg["losses"][0])
        guaranteed = engine.loss_contract_guaranteed(loss_fn, spec)
        lines.append((f"{label} loss_contract",
                      "GUARANTEED" if guaranteed else "NOT_GUARANTEED",
                      f"full={loss_fn.full_space_loss} r={spec.r} "
                      f"empty_min={loss_fn.empty_set_loss_min}"))
        bounds = [
            ("theta_bound", _both(engine.check_upper_theta_bound(trace, spec),
                                  engine.check_lower_theta_bound(trace, spec))),
            ("risk_bound", engine.check_two_sided_risk_bound(trace, spec))]
        recursion = ("recursion", engine.control_update(spec))
    elif kind == "multi":
        spec = _multi_spec(cfg)
        bounds = [
            ("upper_theta_bound", engine.check_upper_theta_bound(trace, spec)),
            ("upper_risk_bound", engine.check_upper_risk_bound(trace, spec))]
        if spec.two_sided:
            bounds += [
                ("lower_theta_bound",
                 engine.check_lower_theta_bound(trace, spec)),
                ("two_sided_risk_bound",
                 engine.check_two_sided_risk_bound(trace, spec))]
    else:  # baseline_aci
        recursion = ("alpha_recursion",
                     baseline.aci_update(**_aci_params(cfg)))

    for name, (ok, viol) in bounds:
        # the bounds of a vacuous guarantee are informational
        if guaranteed:
            verdict = "PASS" if ok else "FAIL"
        else:
            verdict = "INFO_PASS" if ok else "INFO_FAIL"
        lines.append((f"{label} {name}", verdict, f"max violation {viol:.3e}"))
    if recursion is not None:
        name, update = recursion
        ok, viol = engine.check_recursion(trace, update)
        lines.append((f"{label} {name}", "PASS" if ok else "FAIL",
                      f"max violation {viol:.3e}"))
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


def write_trace_csv(trace, path, layout: str = "interval") -> None:
    """Fixed-column trace export, one row per step.

    Columns: step, then loss, theta_pre and theta_post (one column per risk,
    suffixed _1.._k, when the trace has k-risk columns), then the set as
    set_lo,set_hi (``layout="interval"``) or set_size (any other layout),
    then covered. Floats are written with 17 significant digits, so they
    read back exactly.
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
    else:
        names.append("set_size")
        cols.append(trace.size)
    rows = zip(*[col.tolist() for col in cols], trace.covered.tolist())
    with open(Path(path), "w", newline="") as fh:
        fh.write(",".join(["step", *names, "covered"]) + "\n")
        for step, (*values, covered) in enumerate(rows, 1):
            fh.write(f"{step}," + ",".join([format(v, ".17g") for v in values])
                     + f",{int(covered)}\n")


def read_trace_csv(path):
    """Read a trace CSV back into a StreamTrace; the inverse of
    write_trace_csv. The label and group columns are not exported and come
    back as NaN and -1."""
    with open(Path(path)) as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # a header-only file is a trace of 0 rows
            warnings.filterwarnings("ignore", "loadtxt: input contained")
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    body = body.reshape(-1, len(header))
    cols = dict(zip(header, body.T.copy()))
    n = len(body)

    def per_risk(name):
        if name in cols:
            return cols[name]
        k = sum(1 for c in cols if c.startswith(f"{name}_"))
        return np.column_stack([cols[f"{name}_{i + 1}"] for i in range(k)])

    nan = np.full(n, math.nan)
    lo, hi = cols.get("set_lo", nan), cols.get("set_hi", nan)
    if "set_size" in cols:
        size = cols["set_size"]
    else:
        # NaN endpoints mark the empty set, whose size is 0
        size = np.where(np.isnan(lo), 0.0, hi - lo)
    return engine.StreamTrace(
        loss=per_risk("loss"), theta_pre=per_risk("theta_pre"),
        theta_post=per_risk("theta_post"),
        covered=cols["covered"].astype(bool), size=size, lo=lo, hi=hi,
        y=nan, group=np.full(n, -1, dtype=int))


def recompute_certificate(out_dir) -> list:
    """Re-derive the certificate lines from exported traces alone."""
    out = Path(out_dir)
    with open(out / "config.json") as fh:
        cfg = json.load(fh)
    kind = cfg["controller"]["kind"]
    lines = []
    for trial_dir in sorted(out.glob("trial_*")):
        trace = read_trace_csv(trial_dir / "trace.csv")
        lines.extend(certificate_for_trace(trace, cfg, kind, trial_dir.name))
    return lines


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


def _trace_layout(cfg: dict) -> str:
    # k-risk traces have always recorded the set size only
    if (cfg["controller"]["kind"] != "multi"
            and cfg["constructor"]["kind"] in ("cqr", "quantile_scale")):
        return "interval"
    return "size"


@_reads_inputs_once
def run_experiment(cfg: dict, out_dir=None) -> ExperimentResult:
    """Run all trials, write artifacts, and assemble the certificate."""
    validate_config(cfg)
    result = ExperimentResult(config=cfg)
    out = Path(out_dir if out_dir is not None else cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    result.out_dir = str(out)
    with open(out / "config.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    layout = _trace_layout(cfg)
    reports = []
    try:
        for i in range(cfg["trials"]):
            trace, kind = run_trial(cfg, i)
            report = _trial_report(cfg, trace)
            trial_dir = out / f"trial_{i:03d}"
            trial_dir.mkdir(exist_ok=True)
            write_trace_csv(trace, trial_dir / "trace.csv", layout)
            with open(trial_dir / "report.json", "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
            result.trials.append(TrialResult(trace, report,
                                             int(cfg.get("seed", 0)) + i))
            result.certificate_lines.extend(
                certificate_for_trace(trace, cfg, kind, f"trial_{i:03d}"))
            reports.append(report)
    except KeyboardInterrupt:
        # Flush whatever finished, then let the interrupt propagate.
        _flush_summary(result, reports, out)
        raise
    _flush_summary(result, reports, out)
    return result


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


def _set_by_path(cfg: dict, dotted: str, value) -> dict:
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(dotted, "no such config field")
        node = node[part]
    if parts[-1] not in node and parts[-1] not in (
            "gamma", "m", "M", "B", "theta_init", "lr", "beta_score",
            "beta_loss", "beta_low", "beta_high", "window", "alpha"):
        raise ConfigError(dotted, "no such config field")
    node[parts[-1]] = value
    return cfg


def _val_pinball(cfg: dict, trace) -> float:
    """Validation-window pinball loss of the calibrated interval endpoints."""
    window = tuple(cfg.get("val_window") or cfg.get("eval_window")
                   or (1, len(trace)))
    taus = cfg["model"].get("taus", (0.05, 0.95))
    tau_lo, tau_hi = float(min(taus)), float(max(taus))
    sl = slice(window[0] - 1, window[1])
    lo, hi, y = trace.lo[sl], trace.hi[sl], trace.y[sl]
    total = 0.0
    for i in range(len(y)):
        if not (math.isfinite(lo[i]) and math.isfinite(hi[i])
                and math.isfinite(y[i])):
            return math.inf
        total += 0.5 * (pinball_loss(y[i], lo[i], tau_lo)
                        + pinball_loss(y[i], hi[i], tau_hi))
    return total / max(len(y), 1)


@_reads_inputs_once
def sweep(cfg: dict, param: str, grid: list, out_dir=None) -> dict:
    """Grid sweep over one config field, ranked by validation pinball loss.

    Every grid point reruns the full experiment with the same seeds; ties in
    the validation score select the smaller parameter value. The points
    share one read of each CSV stream; a point whose ``stream`` section
    differs (a ``stream.*`` sweep) reads its own. Returns the ranking table
    and writes ranking.csv / sweep.json under the out dir.
    """
    if not grid:
        raise ConfigError(param, "empty sweep grid")
    validate_config(cfg)
    out = Path(out_dir if out_dir is not None else cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for value in grid:
        sub_cfg = json.loads(json.dumps(cfg))
        _set_by_path(sub_cfg, param, value)
        sub_out = out / f"sweep_{param.replace('.', '_')}_{value}"
        res = run_experiment(sub_cfg, sub_out)
        scores = [_val_pinball(sub_cfg, t.trace) for t in res.trials]
        rows.append({
            "value": value,
            "val_pinball": float(np.mean(scores)),
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
