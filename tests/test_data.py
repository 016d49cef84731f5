from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import riskcast.backbone
from riskcast.backbone import BackboneParams, Workers, train_point_model
from riskcast.calibration import QuantileEvaluator
from riskcast.data import (
    AUX_KEYS,
    TIME_FEATURES,
    CyclicScaleNoise,
    GaussianNoise,
    NoNoise,
    Samples,
    SyntheticSpec,
    Trace,
    UniformNoise,
    WindowMatrix,
    build_layout,
    check_timestamp_gaps,
    derive_time_features,
    deterministic_level,
    generate_synthetic,
    ingest_csv,
    make_windows,
    write_trace_csv,
)
from riskcast.errors import (
    InvalidSpec,
    MissingColumn,
    NegativeThroughput,
    NonFiniteFeatures,
    NonMonotoneTimestamps,
    ParseError,
    TimestampGap,
    TraceTooShort,
)


def write_csv(path, rows, header="timestamp,throughput_mbps"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


class TestIngest:
    def test_three_rows(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["0,10", "1,20", "2,30"])
        trace = ingest_csv(path)
        assert len(trace) == 3
        assert trace.timestamps.tolist() == [0, 1, 2]
        assert trace.throughput.tolist() == [10.0, 20.0, 30.0]
        assert trace.aux == {}

    def test_negative_throughput(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["0,10", "1,-5"])
        with pytest.raises(NegativeThroughput):
            ingest_csv(path)

    def test_duplicate_timestamps(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["7,10", "7,20"])
        with pytest.raises(NonMonotoneTimestamps):
            ingest_csv(path)

    def test_timestamps_an_int64_difference_would_wrap_on(self, tmp_path):
        # 9e18 - (-9e18) exceeds the int64 range.
        path = write_csv(tmp_path / "t.csv", ["9000000000000000000,20", "-9000000000000000000,10"])
        trace = ingest_csv(path)
        assert trace.timestamps.tolist() == [-9 * 10**18, 9 * 10**18]
        assert trace.throughput.tolist() == [10.0, 20.0]
        check_timestamp_gaps(trace)

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["5,50", "1,10", "3,30"])
        trace = ingest_csv(path)
        assert trace.timestamps.tolist() == [1, 3, 5]
        assert trace.throughput.tolist() == [10.0, 30.0, 50.0]

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["0,1"], header="timestamp,other")
        with pytest.raises(MissingColumn):
            ingest_csv(path)

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["0,10", "1,oops"])
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.row == 3
        assert err.value.column == "throughput_mbps"

    def test_schema_mapping_and_aux(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["0,10,30.5", "1,20,31.0"],
            header="ts,rate,elev",
        )
        trace = ingest_csv(path, schema={"timestamp": "ts", "throughput": "rate", "elevation_deg": "elev"})
        assert trace.aux_keys == ("elevation_deg",)
        assert trace.aux["elevation_deg"].tolist() == [30.5, 31.0]

    def test_csv_round_trip(self, tmp_path):
        trace = Trace(
            name="x",
            timestamps=np.arange(5),
            throughput=np.array([1.5, 2.25, 3.0, 4.125, 5.5]),
            aux={"cloud_pct": np.array([0.0, 10.0, 20.0, 30.0, 40.0])},
        )
        path = tmp_path / "round.csv"
        write_trace_csv(trace, str(path))
        back = ingest_csv(str(path))
        assert back.timestamps.tolist() == trace.timestamps.tolist()
        assert back.throughput.tolist() == trace.throughput.tolist()
        assert back.aux["cloud_pct"].tolist() == trace.aux["cloud_pct"].tolist()


class TestTimeFeatures:
    def test_epoch(self):
        f = derive_time_features(np.array([0]))
        assert f["phase15"][0] == 0
        assert f["minute"][0] == 0
        assert f["hour"][0] == 0
        assert f["day_of_week"][0] == 3  # 1970-01-01 was a Thursday

    def test_sixteen_seconds(self):
        assert derive_time_features(np.array([16]))["phase15"][0] == 1

    def test_one_hour_one_minute_one_second(self):
        f = derive_time_features(np.array([3661]))
        assert f["minute"][0] == 1
        assert f["hour"][0] == 1
        assert f["phase15"][0] == 1

    def test_ranges(self, rng):
        ts = rng.integers(0, 10**9, size=2000)
        f = derive_time_features(ts)
        assert np.all((f["phase15"] >= 0) & (f["phase15"] < 15))
        assert np.all((f["minute"] >= 0) & (f["minute"] < 60))
        assert np.all((f["hour"] >= 0) & (f["hour"] < 24))
        assert np.all((f["day_of_week"] >= 0) & (f["day_of_week"] <= 6))


def constant_trace(length, level=100.0):
    return generate_synthetic(SyntheticSpec(length=length, seed=0, base_level=level))


class TestWindows:
    def test_sample_count(self):
        ds = make_windows(constant_trace(100), history=75, horizon=15)
        assert len(ds) == 11

    def test_too_short(self):
        with pytest.raises(TraceTooShort):
            make_windows(constant_trace(89), history=75, horizon=15)

    def test_split_counts_1000(self):
        ds = make_windows(constant_trace(1000), 75, 15, (0.7, 0.15, 0.15))
        assert len(ds) == 911
        assert len(ds.train) in (637, 638)
        assert abs(len(ds.calibration) - 0.15 * 911) <= 1
        assert abs(len(ds.test) - 0.15 * 911) <= 1
        assert len(ds.train) + len(ds.calibration) + len(ds.test) == 911

    @pytest.mark.parametrize("length,history,horizon", [(30, 4, 2), (57, 10, 5), (200, 75, 15)])
    def test_completeness(self, length, history, horizon):
        ds = make_windows(constant_trace(length), history, horizon)
        assert len(ds) == length - history - horizon + 1

    def test_splits_are_built_once_and_one_worker_set_bins_once(self, monkeypatch):
        shapes = []
        bin_features = riskcast.backbone._bin_features
        monkeypatch.setattr(riskcast.backbone, "_bin_features",
                            lambda X: shapes.append(X.shape) or bin_features(X))
        ds = make_windows(constant_trace(400), 10, 5)
        assert ds.train is ds.train
        assert ds.calibration is ds.calibration and ds.test is ds.test
        params = BackboneParams(n_trees=2, max_depth=2, min_samples_leaf=5)
        with Workers(ds.train, ds.calibration) as workers:
            QuantileEvaluator(workers, params)(0.3)
            train_point_model(ds.train, params, workers=workers)
        assert shapes == [ds.train.X.shape]

    def test_split_chronology(self):
        ds = make_windows(constant_trace(400), 10, 5)
        assert ds.train.origin_index.max() < ds.calibration.origin_index.min()
        assert ds.calibration.origin_index.max() < ds.test.origin_index.min()

    def test_window_contents_match_trace(self, rng):
        spec = SyntheticSpec(length=60, seed=3, base_level=80.0, noise=UniformNoise(20.0))
        trace = generate_synthetic(spec)
        history, horizon = 5, 3
        ds = make_windows(trace, history, horizon)
        clock = derive_time_features(trace.timestamps)
        for i in [0, 7, len(ds) - 1]:
            t = ds.origin_index[i]
            expected_x = np.concatenate([
                trace.throughput[t - history + 1 : t + 1],
                clock["phase15"][t - history + 1 : t + 1],
                clock["minute"][t - history + 1 : t + 1],
                clock["hour"][t - history + 1 : t + 1],
                clock["day_of_week"][t - history + 1 : t + 1],
            ])
            assert np.array_equal(np.asarray(ds.X)[i], expected_x)
            assert np.array_equal(ds.Y[i], trace.throughput[t + 1 : t + 1 + horizon])

    def test_layout_shape_and_round_trip(self):
        trace = Trace(
            name="aux",
            timestamps=np.arange(40),
            throughput=np.full(40, 10.0),
            aux={"elevation_deg": np.zeros(40), "cloud_pct": np.ones(40)},
        )
        ds = make_windows(trace, 4, 2)
        assert len(ds.layout) == 4 * (1 + 2 + 4)
        assert ds.X.shape[1] == len(ds.layout)
        restored = tuple(json.loads(json.dumps(list(ds.layout))))
        assert restored == ds.layout
        assert ds.layout == build_layout(4, ("elevation_deg", "cloud_pct"))

    def test_empty_split_is_rejected(self):
        # 7 windows: 6 train, 1 calibration, 0 test at these ratios
        with pytest.raises(TraceTooShort, match="split 6/1/0"):
            make_windows(constant_trace(12), 4, 2, (0.8, 0.15, 0.05))

    def test_timestamp_gap_is_rejected(self):
        ts = np.concatenate([np.arange(50), np.arange(53, 100)])  # 49 -> 53 before row 50
        trace = Trace("gap", ts, np.full(ts.size, 10.0))
        with pytest.raises(TimestampGap, match=r"before row 50: step 4 against the trace's usual step 1;"):
            make_windows(trace, 4, 2)

    def test_uniform_step_other_than_one_is_not_a_gap(self):
        trace = Trace("every-2s", np.arange(0, 200, 2), np.full(100, 10.0))
        assert len(make_windows(trace, 4, 2)) == 95

    def test_one_row_has_no_step_to_check(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the median of no steps would warn
            check_timestamp_gaps(Trace("one-row", np.array([5]), np.array([10.0])))

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            make_windows(constant_trace(100), 4, 2, (0.5, 0.2, 0.2))


def hstacked_windows(trace: Trace, history: int, n: int) -> np.ndarray:
    """The feature matrix as it was built before the window view: each
    series' sliding windows side by side."""
    clock = derive_time_features(trace.timestamps)
    series = [trace.throughput, *(trace.aux[k] for k in trace.aux_keys), *(clock[k] for k in TIME_FEATURES)]
    blocks = [np.lib.stride_tricks.sliding_window_view(s, history)[:n] for s in series]
    return np.hstack(blocks).astype(np.float64)


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestWindowMatrix:
    @settings(max_examples=100, deadline=None)
    @given(
        history=st.integers(1, 12),
        horizon=st.integers(1, 6),
        aux_keys=st.lists(st.sampled_from(AUX_KEYS), max_size=2, unique=True),
        length=st.integers(20, 160),
        start=st.integers(0, 10**9),
        twentieths=st.integers(1, 18).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, 19 - t))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_view_is_the_hstacked_matrix(self, history, horizon, aux_keys, length, start, twentieths, seed):
        train, cal = twentieths[0] / 20, twentieths[1] / 20
        rng = np.random.default_rng(seed)
        trace = Trace("random", np.arange(start, start + length),
                      np.round(rng.uniform(0.0, 300.0, length), 1),
                      aux={k: rng.normal(0.0, 50.0, length) for k in aux_keys})
        try:
            ds = make_windows(trace, history, horizon, (train, cal, 1 - train - cal))
        except TraceTooShort:
            assume(False)
        expected = hstacked_windows(trace, history, len(ds))
        view = ds.X
        assert isinstance(view, WindowMatrix)
        assert view.shape == expected.shape and len(view) == len(expected)
        assert view.nbytes == expected.nbytes
        assert_same_bits(np.asarray(view), expected)
        for j in range(expected.shape[1]):
            assert_same_bits(view[:, j], expected[:, j])
            rows = rng.integers(-len(expected), len(expected), size=rng.integers(0, 2 * len(expected)))
            assert_same_bits(view[rows, j], expected[rows, j])
        for split, lo, hi in ((ds.train, 0, ds.train_end), (ds.calibration, ds.train_end, ds.cal_end),
                              (ds.test, ds.cal_end, len(ds))):
            assert split.X.shape == expected[lo:hi].shape and split.X.nbytes == expected[lo:hi].nbytes
            assert_same_bits(np.asarray(split.X), expected[lo:hi])
            j = int(rng.integers(expected.shape[1]))
            assert_same_bits(split.X[:, j], expected[lo:hi, j])
        lo, hi = sorted(rng.integers(-len(expected) - 2, len(expected) + 2, size=2))
        assert_same_bits(np.asarray(view[lo:hi]), expected[lo:hi])
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        with pytest.raises(ValueError):
            view[:, 0][0] = 1.0

    def test_only_finite_series_covering_every_window(self):
        with pytest.raises(NonFiniteFeatures):
            WindowMatrix((np.array([1.0, np.nan, 2.0]),), 1, 0, 3)
        with pytest.raises(ValueError, match="cover"):
            WindowMatrix((np.arange(5.0),), 3, 1, 3)
        with pytest.raises(IndexError):
            WindowMatrix((np.arange(5.0),), 3, 0, 3)[:, 3]


class TestSynthetic:
    def test_all_stochastic_terms_off(self):
        trace = generate_synthetic(SyntheticSpec(length=50, seed=1, base_level=42.0))
        assert np.all(trace.throughput == 42.0)

    def test_determinism(self):
        spec = SyntheticSpec(length=200, seed=9, base_level=100.0,
                             diurnal_amplitude=10.0, handover_drop=20.0,
                             noise=GaussianNoise(5.0))
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.throughput, b.throughput)

    def test_handover_dips(self):
        spec = SyntheticSpec(length=45, seed=0, base_level=100.0,
                             handover_period=15, handover_drop=30.0)
        trace = generate_synthetic(spec)
        assert trace.throughput[0] == 70.0
        assert trace.throughput[15] == 70.0
        assert trace.throughput[1] == 100.0

    def test_uniform_noise_quantile(self):
        half = 40.0
        spec = SyntheticSpec(length=100_000, seed=17, base_level=500.0,
                             noise=UniformNoise(half))
        trace = generate_synthetic(spec)
        residual = trace.throughput - deterministic_level(spec)
        q25 = np.quantile(residual, 0.25)
        assert abs(q25 - (-0.5 * half)) <= 0.05 * half

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(length=0, seed=0, base_level=1.0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(length=10, seed=0, base_level=1.0, handover_period=0)

    @pytest.mark.parametrize("noise", [
        UniformNoise(40.0),
        GaussianNoise(25.0),
        NoNoise(),
    ])
    def test_noise_quantile_matches_empirical(self, noise):
        # generator-exposed quantile function vs 1e6 draws
        rng = np.random.default_rng(123)
        ts = np.zeros(1_000_000, dtype=np.int64)
        draws = noise.sample(rng, ts)
        value_range = max(draws.max() - draws.min(), 1.0)
        for tau in (0.1, 0.25, 0.5, 0.9):
            expected = noise.quantile(tau)
            assert abs(np.quantile(draws, tau) - expected) <= 0.01 * value_range

    def test_gaussian_quantile_closed_form(self):
        sigma = 25.0
        noise = GaussianNoise(sigma)
        assert noise.quantile(0.5) == 0.0
        assert abs(noise.quantile(0.975) - 1.959963984540054 * sigma) <= 1e-12

    def test_cyclic_noise_conditional_quantile(self):
        noise = CyclicScaleNoise(UniformNoise(30.0), period=100.0, depth=0.5)
        rng = np.random.default_rng(7)
        for t in (0, 25, 60):
            ts = np.full(500_000, t, dtype=np.int64)
            draws = noise.sample(rng, ts)
            value_range = max(draws.max() - draws.min(), 1.0)
            expected = noise.quantile(0.25, np.array([t]))[0]
            assert abs(np.quantile(draws, 0.25) - expected) <= 0.01 * value_range


class TestTraceInvariants:
    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(NonMonotoneTimestamps):
            Trace("bad", np.array([3, 2, 1]), np.array([1.0, 2.0, 3.0]))

    def test_timestamps_are_ordered_without_subtracting(self):
        # np.diff of these int64 timestamps wraps: to a negative step when
        # they ascend, to a positive one when they descend.
        wide = np.array([-9 * 10**18, 9 * 10**18])
        assert Trace("wide", wide, np.ones(2)).timestamps.tolist() == wide.tolist()
        with pytest.raises(NonMonotoneTimestamps):
            Trace("bad", wide[::-1], np.ones(2))

    def test_gap_steps_are_exact_across_the_int64_range(self):
        check_timestamp_gaps(Trace("even", np.array([-9 * 10**18, 0, 9 * 10**18]), np.ones(3)))
        trace = Trace("gap", np.array([-9 * 10**18, -9 * 10**18 + 1, 9 * 10**18]), np.ones(3))
        with pytest.raises(TimestampGap, match="before row 2: step 17999999999999999999 "):
            check_timestamp_gaps(trace)

    def test_rejects_negative_throughput(self):
        with pytest.raises(NegativeThroughput):
            Trace("bad", np.array([1, 2]), np.array([1.0, -2.0]))

    def test_rejects_mismatched_aux(self):
        with pytest.raises(ValueError):
            Trace("bad", np.array([1, 2]), np.array([1.0, 2.0]),
                  aux={"cloud_pct": np.array([1.0])})

    def test_rejects_non_finite_aux(self):
        with pytest.raises(ValueError, match="non-finite"):
            Trace("x", np.arange(5), np.ones(5), aux={"cloud_pct": [1, np.nan, np.inf, 2, 3]})

    def test_arrays_are_read_only(self):
        trace = constant_trace(10)
        with pytest.raises(ValueError):
            trace.throughput[0] = 5.0

    def test_samples_arrays_are_read_only(self):
        samples = Samples(np.zeros((4, 2)), np.zeros((4, 1)), np.arange(4), ("a", "b"))
        for write in (
            lambda: samples.X.__setitem__((0, 0), 1.0),
            lambda: samples.Y.__setitem__((0, 0), 1.0),
            lambda: samples.origin_index.__setitem__(0, 9),
        ):
            with pytest.raises(ValueError):
                write()
