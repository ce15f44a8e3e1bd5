"""Timing proxies installed over riskcal's module attributes.

Nothing here edits the package: every proxy replaces a module attribute
(``riskcal.experiment.LinearPinballModel``, ``riskcal.baseline.empirical_quantile``,
...) with a thin wrapper around the original, so the package's own call
sites pick it up by name lookup.

Two sets exist:

* ``install_clock`` (always on): wraps the stream handed to each control
  loop in an iterator that reads the clock once per item pulled, and keeps
  every ``ExperimentResult`` that ``run_experiment`` returns so the
  benchmark can check certificates. This is the load generator's clock;
  the per-step latency and the set-up end point come from it.
* ``install_layers`` (traced runs only): a span around every call into a
  layer. Spans nest through one stack, so a span's self time is its
  duration minus the time of the spans it caused.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter_ns


class Clock:
    """Timestamps of the items each control loop pulled, one array per loop
    call, plus the experiment results seen."""

    def __init__(self):
        self.loops: list[array] = []
        self.results: list = []


class _ClockIter:
    __slots__ = ("_it", "_ts")

    def __init__(self, iterable, ts: array):
        self._it = iter(iterable)
        self._ts = ts

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self._ts.append(perf_counter_ns())
        return item


def install_clock(clock: Clock) -> None:
    import riskcal.baseline
    import riskcal.engine
    import riskcal.experiment
    import riskcal.multirisk

    def clocked(fn):
        def loop(stream, *args, **kwargs):
            ts = array("q")
            clock.loops.append(ts)
            return fn(_ClockIter(stream, ts), *args, **kwargs)
        return loop

    for mod, name in ((riskcal.engine, "run_stream"),
                      (riskcal.multirisk, "run_multi_stream"),
                      (riskcal.baseline, "run_aci_stream")):
        setattr(mod, name, clocked(getattr(mod, name)))

    run_experiment = riskcal.experiment.run_experiment

    def capture(*args, **kwargs):
        result = run_experiment(*args, **kwargs)
        clock.results.append(result)
        return result

    riskcal.experiment.run_experiment = capture


class Tracer:
    """Per-name span aggregates: [calls, total ns, ns in child spans]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._acc = [0]  # child time accumulated by each open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        acc = self._acc

        def timed(*args, **kwargs):
            acc.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter_ns() - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += acc.pop()
                acc[-1] += d
        return timed

    def iterate(self, name: str, iterable):
        """An iterator whose every ``next`` is one span."""
        return _TimedIter(iter(iterable), self.wrap(name, _next))

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _next(it):
    return next(it)


class _TimedIter:
    __slots__ = ("_it", "_next")

    def __init__(self, it, timed_next):
        self._it = it
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next(self._it)


class _Forward:
    """Base for object proxies: unknown attributes go to the wrapped object."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Model(_Forward):
    def __init__(self, inner, tracer: Tracer):
        super().__init__(inner)
        self.predict = tracer.wrap("models.predict", inner.predict)
        self.update = tracer.wrap("models.update", inner.update)


class _Constructor(_Forward):
    def __init__(self, inner, tracer: Tracer):
        super().__init__(inner)
        self.scored = inner.scored
        self.build = tracer.wrap("sets.build", inner.build)
        self.score = tracer.wrap("sets.score", inner.score)
        self.observe = tracer.wrap("sets.observe", inner.observe)


class _Loss(_Forward):
    def __init__(self, inner, tracer: Tracer):
        super().__init__(inner)
        self._call = tracer.wrap("losses.call", inner.__call__)

    def __call__(self, y, prediction_set):
        return self._call(y, prediction_set)


class _CsvStream(_Forward):
    def __init__(self, inner, tracer: Tracer):
        super().__init__(inner)
        self._tracer = tracer

    def __iter__(self):
        return self._tracer.iterate("streams.item", self._inner)


def install_layers(tracer: Tracer) -> None:
    import riskcal.baseline
    import riskcal.engine
    import riskcal.experiment
    import riskcal.losses
    import riskcal.metrics
    import riskcal.multirisk

    exp = riskcal.experiment

    def factory(cls, proxy):
        def make(*args, **kwargs):
            return proxy(cls(*args, **kwargs), tracer)
        return make

    # streams: generation per item, CSV ingestion per call
    for name in ("synthetic_stream", "image_stream"):
        gen = getattr(exp, name)
        setattr(exp, name, lambda *a, _gen=gen, **k:
                tracer.iterate("streams.item", _gen(*a, **k)))
    ingest = tracer.wrap("streams.csv_ingest", exp.csv_ingest)
    exp.csv_ingest = lambda *a, **k: _CsvStream(ingest(*a, **k), tracer)

    # models
    for name in ("LinearPinballModel", "ConstantModel"):
        setattr(exp, name, factory(getattr(exp, name), _Model))
    replay_cls = exp.ReplayModel
    load = tracer.wrap("models.load", replay_cls.from_csv)

    class _ReplayFactory:
        @staticmethod
        def from_csv(path):
            return _Model(load(path), tracer)

    exp.ReplayModel = _ReplayFactory

    # sets
    for name in ("CqrConstructor", "QuantileScaleConstructor",
                 "ImageIntervalConstructor"):
        setattr(exp, name, factory(getattr(exp, name), _Constructor))
    base = riskcal.baseline
    base.cqr_interval = tracer.wrap("sets.build", base.cqr_interval)
    base.cqr_score = tracer.wrap("sets.score", base.cqr_score)

    # losses
    for name in ("BinaryLossFn", "McLossFn", "ImageMiscoverageFn",
                 "CenterFailureFn"):
        setattr(riskcal.losses, name,
                factory(getattr(riskcal.losses, name), _Loss))

    # stretching: a subclass, so dataclasses.replace keeps the proxy alive
    stretch_cls = exp.Stretch
    apply_span = tracer.wrap("stretching.apply", stretch_cls.apply)
    update_span = tracer.wrap("stretching.update", stretch_cls.updated)

    class _Stretch(stretch_cls):
        def apply(self, theta):
            return apply_span(self, theta)

        def updated(self, score, prev_loss, r):
            return update_span(self, score, prev_loss, r)

    exp.Stretch = _Stretch

    # control loops and the baseline's quantile
    riskcal.engine.run_stream = tracer.wrap(
        "engine.loop", riskcal.engine.run_stream)
    riskcal.multirisk.run_multi_stream = tracer.wrap(
        "multirisk.loop", riskcal.multirisk.run_multi_stream)
    base.run_aci_stream = tracer.wrap("baseline.loop", base.run_aci_stream)
    base.empirical_quantile = tracer.wrap(
        "baseline.quantile", base.empirical_quantile)

    # metrics and the experiment driver's post-run work
    riskcal.metrics.evaluate = tracer.wrap(
        "metrics.evaluate", riskcal.metrics.evaluate)
    write = tracer.wrap("experiment.export", exp.write_trace_csv)

    def export(trace, path, *args, **kwargs):
        write(trace, path, *args, **kwargs)
        tracer.count("experiment.export_rows", len(trace))
        tracer.count("experiment.export_bytes", os.path.getsize(path))

    exp.write_trace_csv = export
    read = tracer.wrap("experiment.import", exp.read_trace_csv)

    def import_(path):
        trace = read(path)
        tracer.count("experiment.import_rows", len(trace))
        return trace

    exp.read_trace_csv = import_
    exp.certificate_for_trace = tracer.wrap(
        "experiment.certificate", exp.certificate_for_trace)
    exp._val_pinball = tracer.wrap("experiment.val_pinball", exp._val_pinball)
