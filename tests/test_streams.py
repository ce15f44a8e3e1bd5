import collections
import csv
import os
import tempfile
import tracemalloc
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kstest

from riskcal import streams
from riskcal.streams import (CsvStreamConfig, ImageStreamConfig,
                             KnownQuantileConfig, KnownQuantileStream,
                             SyntheticConfig, csv_ingest, image_stream,
                             standardize_stream, synthetic_step,
                             synthetic_stream)


class TestSyntheticStep:
    def test_noise_free_branch(self):
        # eps = 0 or x_1 = 0 silences the sine term
        beta = np.array([0.2, 0.8])
        x = np.array([0.0, 0.5])
        y = synthetic_step(4.0, x, eps=0.0, omega=1.0, beta=beta)
        assert y == pytest.approx(4.0 / 2 + abs(beta @ x))
        y2 = synthetic_step(4.0, x, eps=1.7, omega=1.0, beta=beta)
        assert y2 == y  # x_1 = 0 also kills the noise

    def test_scale_enters_squared(self):
        beta = np.array([1.0])
        x = np.array([0.5])
        assert synthetic_step(0.0, x, 0.0, omega=3.0, beta=beta) == \
            pytest.approx(9.0 * 0.5)


class TestSyntheticStream:
    def test_deterministic_replay(self):
        a = list(synthetic_stream(SyntheticConfig(seed=5), 500))
        b = list(synthetic_stream(SyntheticConfig(seed=5), 500))
        for (xa, ya, ga), (xb, yb, gb) in zip(a, b):
            assert np.array_equal(xa, xb) and ya == yb and ga == gb

    def test_group_ids_start_at_one_and_increment(self):
        gs = [g for _, _, g in synthetic_stream(SyntheticConfig(seed=0), 2000)]
        assert gs[0] == 1
        assert sorted(set(gs)) == list(range(1, max(gs) + 1))

    def test_group_lengths_near_mean(self):
        gs = np.array([g for _, _, g in
                       synthetic_stream(SyntheticConfig(seed=12), 10_000)])
        lengths = [np.sum(gs == g) for g in range(1, gs.max())]  # drop last (truncated)
        assert abs(np.mean(lengths) - 500.0) <= 5.0

    def test_feature_marginals_uniform(self):
        xs = np.array([x for x, _, _ in
                       synthetic_stream(SyntheticConfig(seed=9), 10_000)])
        assert xs.min() >= 0.0 and xs.max() <= 1.0
        for j in range(xs.shape[1]):
            assert kstest(xs[:, j], "uniform").pvalue > 0.01

    def test_even_groups_are_large_scale(self):
        pts = list(synthetic_stream(SyntheticConfig(seed=3), 4000))
        ys = np.array([y for _, y, _ in pts])
        gs = np.array([g for _, _, g in pts])
        y_odd = np.abs(ys[gs % 2 == 1]).mean()
        y_even = np.abs(ys[gs % 2 == 0]).mean()
        assert y_even > 20 * y_odd


class TestStandardizeStream:
    def test_two_point_example(self):
        pts = [(np.array([0.0]), 0.0), (np.array([2.0]), 2.0)]
        out = list(standardize_stream(pts, warmup=2))
        assert [y for _, y in out] == [-1.0, 1.0]  # population std = 1
        assert out[0][0][0] == -1.0 and out[1][0][0] == 1.0

    def test_statistics_from_warmup_only(self):
        # extreme post-warmup values must not alter the scaling
        rng = np.random.default_rng(0)
        head = [(np.array([rng.normal()]), rng.normal()) for _ in range(100)]
        tail = [(np.array([1e6]), 1e6)] * 10
        out_full = list(standardize_stream(head + tail, warmup=100))
        out_head = list(standardize_stream(head, warmup=100))
        for (xa, ya), (xb, yb) in zip(out_full[:100], out_head):
            assert xa[0] == xb[0] and ya == yb

    def test_preserves_group_field(self):
        pts = [(np.array([0.0]), 0.0, 7), (np.array([2.0]), 2.0, 8)]
        out = list(standardize_stream(pts, warmup=2))
        assert [g for _, _, g in out] == [7, 8]

    def test_matches_csv_ingestion(self, tmp_path):
        # a constant feature and a target constant over the warm-up: both
        # readers leave them unscaled and agree bit for bit on every row
        rng = np.random.default_rng(2)
        rows = [(rng.normal(), 3.0, 5.0 if i < 4 else rng.normal())
                for i in range(8)]
        path = tmp_path / "stream.csv"
        path.write_text("ts,a,b,target\n" + "".join(
            f"{i},{a!r},{b!r},{y!r}\n" for i, (a, b, y) in enumerate(rows)))
        with pytest.warns(UserWarning, match="constant"):
            cs = csv_ingest(CsvStreamConfig(str(path), "ts", "target",
                                            ["a", "b"], warmup=4,
                                            augment_time=False))
        with pytest.warns(UserWarning, match="constant"):
            out = list(standardize_stream(
                [(np.array([a, b]), y) for a, b, y in rows], warmup=4))
        np.testing.assert_array_equal(np.array([x for x, _ in out]), cs.x)
        np.testing.assert_array_equal([y for _, y in out], cs.y)
        assert cs.x[0][1] == 3.0 and cs.y[0] == 5.0


class TestSuccessiveDifferenceScale:
    def test_hand_value(self):
        from riskcal.streams import successive_difference_scale
        assert successive_difference_scale([0.0, 1.0, -1.0]) == \
            pytest.approx(1.5)

    def test_needs_two_points(self):
        from riskcal.streams import successive_difference_scale
        with pytest.raises(ValueError):
            successive_difference_scale([1.0])


class TestKnownQuantileStream:
    def test_oracle_sees_true_quantiles(self):
        kq = KnownQuantileStream(KnownQuantileConfig(seed=1, slope=2.0))
        model = kq.oracle_model()
        x = np.array([0.5])
        assert model.predict(x, 0.5) == pytest.approx(1.0)

    def test_empirical_coverage_of_true_band(self):
        kq = KnownQuantileStream(KnownQuantileConfig(seed=2))
        model = kq.oracle_model()
        inside = 0
        n = 20_000
        for x, y in kq.generate(n):
            if model.predict(x, 0.05) <= y <= model.predict(x, 0.95):
                inside += 1
        assert inside / n == pytest.approx(0.9, abs=0.01)


class TestImageStream:
    def test_stationary_when_factor_one(self):
        cfg = ImageStreamConfig(seed=0, shift_period=100, shift_factor=1.0)
        frames = [y for _, y in image_stream(cfg, 400)]
        resid = np.array([f - frames[0] * 0 for f in frames])  # labels
        v1 = np.var(resid[:200], axis=0).mean()
        v2 = np.var(resid[200:], axis=0).mean()
        assert v2 / v1 == pytest.approx(1.0, abs=0.2)

    def test_deterministic(self):
        cfg = ImageStreamConfig(seed=4, shift_period=50, shift_factor=2.0)
        a = [(p.copy(), y.copy()) for p, y in image_stream(cfg, 100)]
        b = [(p.copy(), y.copy()) for p, y in image_stream(cfg, 100)]
        for (pa, ya), (pb, yb) in zip(a, b):
            assert np.array_equal(pa, pb) and np.array_equal(ya, yb)

    def test_variance_shifts_by_configured_factor(self):
        cfg = ImageStreamConfig(seed=8, shift_period=500, shift_factor=2.0)
        resids = [y - p for p, y in image_stream(cfg, 1000)]
        v_pre = np.var(np.array(resids[:500]), axis=0).mean()
        v_post = np.var(np.array(resids[500:]), axis=0).mean()
        assert v_post / v_pre == pytest.approx(4.0, rel=0.25)  # factor^2


class TestCsvIngest:
    def _write(self, tmp_path, rows, header="ts,feat,target"):
        path = tmp_path / "stream.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_warmup_standardization(self, tmp_path):
        rows = ["2020-01-06T13:30,0,0", "2020-01-06T13:31,2,2",
                "2020-01-06T13:32,4,4"]
        path = self._write(tmp_path, rows)
        cs = csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"],
                                        warmup=2))
        # warm-up values {0, 2}: mean 1, population std 1
        assert cs.x[0][0] == -1.0 and cs.x[1][0] == 1.0 and cs.x[2][0] == 3.0
        assert list(cs.y) == [-1.0, 1.0, 3.0]

    def test_time_augmentation_monday(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-06T13:30,1,2",
                                      "2020-01-07T09:05,2,3"], )
        cs = csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"],
                                        warmup=2))
        # appended raw time features: day, month, year, hours, minutes, dow
        assert list(cs.x[0][-6:]) == [6.0, 1.0, 2020.0, 13.0, 30.0, 0.0]
        assert cs.group[0] == 0  # Monday
        assert cs.group[1] == 1  # Tuesday

    def test_epoch_timestamps(self, tmp_path):
        path = self._write(tmp_path, ["1578317400,1,2", "1578317460,2,3"])
        cs = csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"],
                                        warmup=2, timestamp_format="epoch"))
        assert cs.x[0][-4] == 2020.0  # year feature

    def test_missing_value_row_rejected_with_warning(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-06T13:30,1,2",
                                      "2020-01-06T13:31,,3",
                                      "2020-01-06T13:32,3,4"])
        with pytest.warns(UserWarning, match="row 2.*feat"):
            cs = csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"],
                                            warmup=2))
        assert len(cs) == 2

    def test_unparseable_value_raises_with_diagnostics(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-06T13:30,abc,2"])
        with pytest.raises(ValueError, match="row 1.*feat"):
            csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"], warmup=1))

    def test_constant_column_left_unscaled(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-06T13:30,5,1",
                                      "2020-01-06T13:31,5,2"])
        with pytest.warns(UserWarning, match="constant"):
            cs = csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"],
                                            warmup=2))
        assert cs.x[0][0] == 5.0

    def test_warmup_exceeding_rows_rejected(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-06T13:30,1,2"])
        with pytest.raises(ValueError, match="warm-up"):
            csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"],
                                       warmup=10))

    def test_missing_column_rejected(self, tmp_path):
        path = self._write(tmp_path, ["2020-01-06T13:30,1,2"])
        with pytest.raises(ValueError, match="nope"):
            csv_ingest(CsvStreamConfig(path, "ts", "target", ["nope"],
                                       warmup=1))

    def test_normalization_never_reads_past_warmup(self, tmp_path):
        rows = [f"2020-01-0{d}T00:00,{d},{d}" for d in range(1, 5)]
        full = self._write(tmp_path, rows + ["2020-01-09T00:00,1000000,1000000"])
        cfgf = CsvStreamConfig(full, "ts", "target", ["feat"], warmup=4)
        csf = csv_ingest(cfgf)
        head = self._write(tmp_path, rows)
        csh = csv_ingest(CsvStreamConfig(head, "ts", "target", ["feat"],
                                         warmup=4))
        assert csf.x_mean == csh.x_mean and csf.x_std == csh.x_std
        assert csf.y_mean == csh.y_mean and csf.y_std == csh.y_std
        np.testing.assert_array_equal(csf.x[:4], csh.x)

    def test_round_trip_through_trace_export(self, tmp_path):
        # five-row toy file driven through the engine and the trace CSV
        from riskcal.engine import RiskSpec, run_stream
        from riskcal.experiment import read_trace_csv, write_trace_csv
        from riskcal.losses import BinaryLossFn
        from riskcal.models import LinearPinballModel
        from riskcal.sets import CqrConstructor

        rows = [f"2020-01-0{d}T00:00,{d},{d * 2}" for d in range(1, 6)]
        path = self._write(tmp_path, rows)
        cs = csv_ingest(CsvStreamConfig(path, "ts", "target", ["feat"],
                                        warmup=5))
        model = LinearPinballModel(cs.x.shape[1], (0.05, 0.95), lr=0.3)
        trace = run_stream(iter(cs), model, CqrConstructor(), BinaryLossFn(),
                           RiskSpec(r=0.1, gamma=0.05, m=-10, M=10))
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out, "interval")
        back = read_trace_csv(out)
        np.testing.assert_array_equal(back.loss, trace.loss)
        np.testing.assert_array_equal(back.theta_pre, trace.theta_pre)
        np.testing.assert_array_equal(back.theta_post, trace.theta_post)
        np.testing.assert_array_equal(back.lo, trace.lo)
        np.testing.assert_array_equal(back.hi, trace.hi)
        np.testing.assert_array_equal(back.covered, trace.covered)


def _dictreader_ingest(config):
    """csv_ingest as it read rows through csv.DictReader: the reference for
    the column-index reader."""
    feats, targets, times, groups = [], [], [], []
    with open(config.path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise streams.CsvInputError(
                "path", f"{config.path}: missing header row")
        feature_cols = list(config.feature_cols)
        if not feature_cols:
            reserved = {config.target_col, config.timestamp_col}
            feature_cols = [c for c in reader.fieldnames if c not in reserved]
        needed = [("target_col", config.target_col)]
        needed += [("feature_cols", c) for c in feature_cols]
        if config.augment_time or config.timestamp_col:
            needed.append(("timestamp_col", config.timestamp_col))
        for fld, col in needed:
            if col not in reader.fieldnames:
                raise streams.CsvInputError(
                    fld, f"{config.path}: column {col!r} not in header")
        for idx, row in enumerate(reader, start=1):
            values = {}
            missing = None
            for col in [config.target_col] + feature_cols:
                raw = (row.get(col) or "").strip()
                if raw.lower() in streams._NA_TOKENS:
                    missing = col
                    break
                try:
                    values[col] = float(raw)
                except ValueError as exc:
                    raise streams.CsvInputError(
                        "path",
                        f"row {idx}, column {col!r}: cannot parse {raw!r}"
                    ) from exc
            if missing is not None:
                warnings.warn(
                    f"row {idx} rejected: missing value in column {missing!r}")
                continue
            if config.augment_time:
                ts = streams._parse_timestamp(
                    (row.get(config.timestamp_col) or "").strip(),
                    config.timestamp_format, idx)
                times.append(streams._time_features(ts))
                groups.append(ts.weekday())
            else:
                groups.append(-1)
            feats.append([values[c] for c in feature_cols])
            targets.append(values[config.target_col])
    if not feats:
        raise streams.CsvInputError("path", f"{config.path}: no usable rows")
    if config.warmup > len(feats):
        raise streams.CsvInputError(
            "warmup",
            f"warm-up size {config.warmup} exceeds row count {len(feats)}")
    X = np.asarray(feats, dtype=float)
    y = np.asarray(targets, dtype=float)
    x_mean, x_std, y_mean, y_std = streams._warmup_statistics(
        X[:config.warmup], y[:config.warmup], feature_cols)
    X = (X - x_mean) / x_std
    y = (y - y_mean) / y_std
    names = list(feature_cols)
    if config.augment_time:
        X = np.hstack([X, np.asarray(times, dtype=float)])
        names += list(streams._TIME_FEATURES)
    return streams.CsvStream(x=X, y=y, group=np.asarray(groups, dtype=int),
                             feature_names=names, x_mean=x_mean, x_std=x_std,
                             y_mean=y_mean, y_std=y_std)


def _outcome(ingest, config):
    """Everything ``ingest`` gives: each field's bytes or the error, and
    the warnings in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cs = ingest(config)
            got = [(f, np.asarray(getattr(cs, f)).dtype.str,
                    np.asarray(getattr(cs, f)).tobytes())
                   for f in ("x", "y", "group", "x_mean", "x_std", "y_mean",
                             "y_std")] + [cs.feature_names]
        except ValueError as exc:
            got = (type(exc), getattr(exc, "field", None), str(exc))
    return got, [(w.category, str(w.message)) for w in caught]


_DAY = "2020-01-06T13:"
_FILES = {
    "na_tokens": ("ts,feat,target\n"
                  f"{_DAY}30,1,2\n{_DAY}31,NA,3\n{_DAY}32,3, nan \n"
                  f"{_DAY}33,null,4\n{_DAY}34,None,5\n{_DAY}35,,6\n"
                  f"{_DAY}36,4,7\n{_DAY}37,5,8\n"),
    "short_rows": ("ts,feat,target\n"
                   f"{_DAY}30,1,2\n{_DAY}31,2\n{_DAY}32\n{_DAY}33,3,4\n"
                   f"{_DAY}34,5,6,extra\n"),
    "blank_lines": ("ts,feat,target\n\n"
                    f"{_DAY}30,1,2\n\n\n{_DAY}31,,3\n\n{_DAY}32,3,4\n"
                    f"{_DAY}33,5,7\n\n"),
    "whitespace": ("ts,feat,target\n"
                   f" {_DAY}30 , 1 ,\t2\n   \n{_DAY}31,\t ,3\n"
                   f"{_DAY}32, 3.5 , -4e1 \n{_DAY}33,5,7\n"),
    "duplicate_headers": ("ts,feat,target,feat\n"
                          f"{_DAY}30,1,2,10\n{_DAY}31,2,3,\n"
                          f"{_DAY}32,x,4,30\n{_DAY}33,4,6,35\n"),
    "short_timestamp": ("feat,target,ts\n"
                        f"1,2,{_DAY}30\n2,3,{_DAY}31\n3,4\n"),
    "empty": "",
    "blank_first_line": f"\nts,feat,target\n{_DAY}30,1,2\n",
    "unparseable": ("ts,feat,target\n"
                    f"{_DAY}30,1,2\n\n{_DAY}31,abc,3\n"),
}
_CONFIGS = {
    "named": dict(timestamp_col="ts", target_col="target",
                  feature_cols=["feat"], warmup=2),
    "all_features": dict(timestamp_col="ts", target_col="target", warmup=2),
    "no_time": dict(timestamp_col="", target_col="target",
                    feature_cols=["feat"], warmup=2, augment_time=False),
}


class TestCsvIngestSameAsDictReader:
    @pytest.mark.parametrize("config", sorted(_CONFIGS))
    @pytest.mark.parametrize("name", sorted(_FILES))
    def test_same_arrays_warnings_and_errors(self, tmp_path, name, config):
        path = tmp_path / "s.csv"
        path.write_text(_FILES[name])
        cfg = CsvStreamConfig(str(path), **_CONFIGS[config])
        assert _outcome(csv_ingest, cfg) == _outcome(_dictreader_ingest, cfg)


def _csv_ingest_frozen(config):
    """csv_ingest as it stripped, lower-cased and looked up every cell in the
    NA tokens before it called ``float``: the reference for the float-first
    cell loop."""
    feats, targets, times, groups = [], [], [], []
    with open(config.path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise streams.CsvInputError(
                "path", f"{config.path}: missing header row")
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
                raise streams.CsvInputError(
                    fld, f"{config.path}: column {col!r} not in header")
        value_cols = [(col, index[col])
                      for col in [config.target_col] + feature_cols]
        ts_col = index.get(config.timestamp_col)
        for idx, row in enumerate(filter(None, reader), start=1):
            n = len(row)
            values = []
            for col, j in value_cols:
                raw = row[j].strip() if j < n else ""
                if raw.lower() in streams._NA_TOKENS:
                    warnings.warn(
                        f"row {idx} rejected: missing value in column {col!r}")
                    break
                try:
                    values.append(float(raw))
                except ValueError as exc:
                    raise streams.CsvInputError(
                        "path",
                        f"row {idx}, column {col!r}: cannot parse {raw!r}"
                    ) from exc
            else:
                if config.augment_time:
                    raw = row[ts_col].strip() if ts_col < n else ""
                    ts = streams._parse_timestamp(
                        raw, config.timestamp_format, idx)
                    times.append(streams._time_features(ts))
                    groups.append(ts.weekday())
                else:
                    groups.append(-1)
                targets.append(values[0])
                feats.append(values[1:])
    if not feats:
        raise streams.CsvInputError("path", f"{config.path}: no usable rows")
    if config.warmup > len(feats):
        raise streams.CsvInputError(
            "warmup",
            f"warm-up size {config.warmup} exceeds row count {len(feats)}")
    X = np.asarray(feats, dtype=float)
    y = np.asarray(targets, dtype=float)
    x_mean, x_std, y_mean, y_std = streams._warmup_statistics(
        X[:config.warmup], y[:config.warmup], feature_cols)
    X = (X - x_mean) / x_std
    y = (y - y_mean) / y_std
    names = list(feature_cols)
    if config.augment_time:
        X = np.hstack([X, np.asarray(times, dtype=float)])
        names += list(streams._TIME_FEATURES)
    group = np.asarray(groups, dtype=int)
    for arr in (X, y, group):
        arr.setflags(write=False)
    return streams.CsvStream(x=X, y=y, group=group, feature_names=names,
                             x_mean=x_mean, x_std=x_std, y_mean=y_mean,
                             y_std=y_std)


def _iter_frozen(cs):
    """CsvStream.__iter__ as it indexed and converted one item at a time."""
    for i in range(len(cs.y)):
        yield cs.x[i], float(cs.y[i]), int(cs.group[i])


def _error(exc):
    return (type(exc), getattr(exc, "field", None), str(exc),
            type(exc.__cause__), str(exc.__cause__))


def _items(it):
    """Each item's row (type, writeability, dtype and bytes), label (type
    and int64 bits) and group (type and value)."""
    return [(type(x), x.flags.writeable, x.dtype.str, x.tobytes(),
             type(y), np.float64(y).view(np.int64).item(), type(g), g)
            for x, y, g in it]


def _ingest_and_iterate(ingest, iterate, config):
    """The fields ``ingest`` gives, or its error; the items ``iterate``
    yields over the result, twice; and the warnings, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cs = ingest(config)
        except ValueError as exc:
            got = _error(exc)
        else:
            got = [(f, np.asarray(getattr(cs, f)).dtype.str,
                    np.asarray(getattr(cs, f)).tobytes())
                   for f in ("x", "y", "group", "x_mean", "x_std", "y_mean",
                             "y_std")] + [cs.feature_names]
            got += [_items(iterate(cs)), _items(iterate(cs))]
    return got, [(w.category, str(w.message)) for w in caught]


_NUMBERS = ["1", " 2.5 ", "-3e1", "\t4\t", "0", "-0.0", "7", "1e308",
            "5e-324", "0.1"]
# each special cell is drawn a third as often as each number
_CELLS = _NUMBERS * 3 + ["", " ", "nan", " NaN ", "+nan", "-inf", "inf",
                         "1_0", "１２", "abc", "NA", "null", "None"]
_HEADERS = ["ts,feat,target", "ts,feat,target,feat", "feat,target,ts",
            "target,ts,feat,feat"]
_STAMPS = ["2020-01-06T13:30", "2020-01-07T08:00", "2020-01-11T23:59",
           " 2020-01-12T00:00 ", "1578316200", "1578400000.5", "", "later"]
_FLOAT_FIRST_CONFIGS = {
    "named": dict(timestamp_col="ts", target_col="target",
                  feature_cols=["feat"], warmup=1),
    "all_features": dict(timestamp_col="ts", target_col="target", warmup=2),
    "no_time": dict(timestamp_col="", target_col="target",
                    feature_cols=["feat"], warmup=1, augment_time=False),
    "epoch": dict(timestamp_col="ts", target_col="target",
                  feature_cols=["feat"], warmup=1,
                  timestamp_format="epoch"),
}


@st.composite
def _csv_file(draw):
    """A config name and the text of a CSV file for it."""
    config = draw(st.sampled_from(sorted(_FLOAT_FIRST_CONFIGS)))
    # mostly stamps of the config's format; the rest may not parse
    own = _STAMPS[4:6] if config == "epoch" else _STAMPS[:4]
    header = draw(st.sampled_from(_HEADERS))
    width = header.count(",") + 1
    ts_at = header.split(",").index("ts")
    lines = [header]
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")  # a blank line
            continue
        cells = [draw(st.sampled_from(_CELLS)) for _ in range(width)]
        cells[ts_at] = draw(st.sampled_from(own * 8 + _STAMPS))
        # a short row, or one with an extra cell
        cut = draw(st.sampled_from([width] * 6 + list(range(1, width + 2))))
        lines.append(",".join((cells + ["9"])[:cut]))
    return config, "\n".join(lines) + "\n"


class TestFloatFirstSameAsParent:
    """The float-first cell loop and the list-backed iteration against the
    code they replace: the same arrays, items (bits and Python types),
    warnings in order, and errors (type, field, message and cause)."""

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(file=_csv_file())
    def test_same_ingest_items_warnings_and_errors(self, file):
        config, text = file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            cfg = CsvStreamConfig(path, **_FLOAT_FIRST_CONFIGS[config])
            got = _ingest_and_iterate(csv_ingest, iter, cfg)
            assert got == _ingest_and_iterate(_csv_ingest_frozen,
                                              _iter_frozen, cfg)

    @pytest.mark.parametrize("cell,accepted", [
        ("nan", False), (" NaN ", False), ("", False), ("+nan", True),
        ("inf", True), ("-inf", True), ("1_0", True), ("１２", True)])
    def test_cells_accepted_or_rejected(self, tmp_path, cell, accepted):
        path = tmp_path / "s.csv"
        path.write_text(f"ts,feat,target\n{_DAY}30,1,2\n{_DAY}31,{cell},3\n",
                        encoding="utf-8")
        cfg = CsvStreamConfig(str(path), **_FLOAT_FIRST_CONFIGS["named"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cs = csv_ingest(cfg)
        assert len(cs) == (2 if accepted else 1)
        missing = [str(w.message) for w in caught
                   if "rejected" in str(w.message)]
        assert missing == ([] if accepted else [
            "row 2 rejected: missing value in column 'feat'"])

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"ts,feat,target\n{_DAY}30,1,2\n{_DAY}31, abc ,3\n")
        cfg = CsvStreamConfig(str(path), **_FLOAT_FIRST_CONFIGS["named"])
        with pytest.raises(streams.CsvInputError,
                           match=r"^row 2, column 'feat': cannot parse 'abc'$"):
            csv_ingest(cfg)

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(data=st.data())
    def test_items_of_any_arrays(self, data):
        n = data.draw(st.integers(0, 6))
        x = data.draw(hnp.arrays(np.float64, (n, data.draw(
            st.integers(1, 3)))))
        y = data.draw(hnp.arrays(np.float64, n))
        group = data.draw(hnp.arrays(int, n))
        for arr in (x, y, group):
            arr.setflags(write=False)
        cs = streams.CsvStream(x=x, y=y, group=group, feature_names=[],
                               x_mean=None, x_std=None, y_mean=0.0, y_std=1.0)
        assert _items(cs) == _items(_iter_frozen(cs))
        assert all(r.base is x for r, _, _ in cs)


# ---------------------------------------------------------------------------
# CSV ingestion as it was before it collected rows into flat typed columns:
# a frozen copy, kept as the oracle of the same-arrays test below.
# ---------------------------------------------------------------------------

def _frozen_csv_ingest(config):
    import math

    from riskcal.streams import (_NA_TOKENS, _TIME_FEATURES, CsvInputError,
                                 CsvStream, _parse_timestamp, _time_features,
                                 _warmup_statistics)

    feats, targets, times, groups = [], [], [], []
    with open(config.path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvInputError("path", f"{config.path}: missing header row")
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
        for idx, row in enumerate(filter(None, reader), start=1):
            n = len(row)
            values = []
            for col, j in value_cols:
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
                    times.append(_time_features(ts))
                    groups.append(ts.weekday())
                else:
                    groups.append(-1)
                targets.append(values[0])
                feats.append(values[1:])
    if not feats:
        raise CsvInputError("path", f"{config.path}: no usable rows")
    if config.warmup > len(feats):
        raise CsvInputError(
            "warmup",
            f"warm-up size {config.warmup} exceeds row count {len(feats)}")
    warmup = config.warmup
    X = np.asarray(feats, dtype=float)
    y = np.asarray(targets, dtype=float)
    x_mean, x_std, y_mean, y_std = _warmup_statistics(
        X[:warmup], y[:warmup], feature_cols)
    X = (X - x_mean) / x_std
    y = (y - y_mean) / y_std
    names = list(feature_cols)
    if config.augment_time:
        X = np.hstack([X, np.asarray(times, dtype=float)])
        names += list(_TIME_FEATURES)
    group = np.asarray(groups, dtype=int)
    for arr in (X, y, group):
        arr.setflags(write=False)
    return CsvStream(x=X, y=y, group=group, feature_names=names,
                     x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)


# each list ends with a stamp its format cannot parse
_ISO = ["2021-03-01T00:00:00", "2021-03-06 13:45", "2020-02-29T23:59:59",
        "2021-03-0"]
_EPOCH = ["1614556800", "1614556800.5", "-86400", "1e30"]
_VALUES = ["1.5", " -2 ", "0", "3e2", "inf", "+nan", "1e400", "-0.0", "7"]
_NA = ["", "NA", " nan ", "null", "None"]


@st.composite
def _csv_files(draw):
    """A CSV file and the config reading it: rows with NA tokens, short
    rows, blank lines, unparseable cells, ISO or epoch timestamps, with or
    without time features, and a warm-up that may exceed the rows."""
    fmt = draw(st.sampled_from(["iso", "epoch"]))
    stamps = _ISO if fmt == "iso" else _EPOCH
    stamps = stamps[:-1] * 8 + stamps[-1:]
    header = ["ts", "target", "f1", "f2"]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["full"] * 12 + ["na", "na", "short", "short", "blank", "bad"]))
        if kind == "blank":
            lines.append("")
            continue
        cells = [draw(st.sampled_from(stamps))] + [
            draw(st.sampled_from(_VALUES)) for _ in range(3)]
        if kind == "na":
            cells[draw(st.integers(1, 3))] = draw(st.sampled_from(_NA))
        elif kind == "short":
            cells = cells[:draw(st.integers(1, 3))]
        elif kind == "bad":
            cells[draw(st.integers(1, 3))] = "x1"
        lines.append(",".join(cells))
    config = {
        "timestamp_col": "ts", "target_col": "target",
        "feature_cols": draw(st.sampled_from([[], ["f1"], ["f2", "f1"]])),
        "warmup": draw(st.integers(1, 5)),
        "augment_time": draw(st.booleans()), "timestamp_format": fmt}
    return "\n".join(lines) + "\n", config


def _ingest_outcome(ingest, path, config):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            cs = ingest(CsvStreamConfig(path, **config))
        except ValueError as exc:
            result = ("raised", type(exc), str(exc),
                      getattr(exc, "field", None))
        else:
            arrays = [(a.dtype, a.shape, a.flags.writeable,
                       np.ascontiguousarray(a).tobytes())
                      for a in (cs.x, cs.y, cs.group, cs.x_mean, cs.x_std)]
            result = (arrays, cs.feature_names,
                      np.float64(cs.y_mean).tobytes(),
                      np.float64(cs.y_std).tobytes())
    return result, [(w.category, str(w.message)) for w in seen]


class TestColumnarIngestSameArrays:
    """Ingestion into flat typed columns gives the frozen list-per-row
    ingestion's arrays, statistics, warnings (text and order) and errors."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(drawn=_csv_files())
    def test_equals_the_frozen_ingestion(self, drawn):
        text, config = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            new = _ingest_outcome(csv_ingest, path, config)
            old = _ingest_outcome(_frozen_csv_ingest, path, config)
        assert new == old


# ---------------------------------------------------------------------------
# Memory of the CSV plug-in path, under tracemalloc
# ---------------------------------------------------------------------------

class TestCsvMemory:
    """``csv_ingest`` holds each input once: one typed array of the rows of
    ``X`` (3 features and 6 time features, 72 bytes), and one each for the
    target and the group (8 bytes each), with up to 1/16 slack. It makes
    no standardized copy of ``X`` and no ``hstack`` copy, and a pass over
    the stream copies no column. Figures are bytes per row of a 20,000-row
    series; the ingestion that made both copies of ``X`` peaked at 195
    (kept 88.5), and a pass that took ``tolist()`` of ``y`` and ``group``
    peaked at 40."""

    N = 20_000

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv_memory") / "series.csv"
        rng = np.random.default_rng(0)
        start = datetime(2021, 1, 1)
        with open(path, "w") as fh:
            fh.write("timestamp,target,f1,f2,f3\n")
            for t, row in enumerate(rng.normal(size=(self.N, 4)).tolist()):
                ts = (start + timedelta(hours=t)).isoformat()
                fh.write(ts + "," + ",".join(map(repr, row)) + "\n")
        config = CsvStreamConfig(str(path), "timestamp", "target",
                                 ["f1", "f2", "f3"], warmup=2_000)
        csv_ingest(config)  # first-call allocations
        return config

    def test_ingest_holds_each_input_once(self, config):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cs = csv_ingest(config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.x.shape == (self.N, 9)
        kept, peak = (kept - base) / self.N, (peak - base) / self.N
        assert kept <= 96, f"kept {kept:.1f} B/row"
        assert peak <= 120, f"peak {peak:.1f} B/row"

    def test_a_pass_copies_no_column(self, config):
        cs = csv_ingest(config)
        collections.deque(cs, maxlen=0)  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            collections.deque(cs, maxlen=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / self.N <= 2, f"peak {peak / self.N:.1f} B/row"
