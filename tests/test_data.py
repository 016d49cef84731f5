from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import riskcast.backbone
import riskcast.data
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
    WindowedDataset,
    _freeze,
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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheet exports start UTF-8 text with one.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbftimestamp,throughput_mbps,elevation_deg\n1,20,41\n0,10,40\n")
        trace = ingest_csv(str(path))
        assert trace.timestamps.tolist() == [0, 1]
        assert trace.throughput.tolist() == [10.0, 20.0]
        assert trace.aux_keys == ("elevation_deg",)

    def test_negative_throughput(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["0,10", "1,-5"])
        with pytest.raises(NegativeThroughput):
            ingest_csv(path)

    def test_duplicate_timestamps(self, tmp_path):
        # Rows may arrive unsorted, so the repeat is named with the row it repeats: lines 3 and 5.
        path = write_csv(tmp_path / "t.csv", ["0,10", "1,20", "2,30", "1,40", "3,50"])
        with pytest.raises(ParseError, match=r"^timestamp 1 already on row 3 \(row 5, column 'timestamp'\)$"):
            ingest_csv(path)

    def test_timestamps_an_int64_difference_would_wrap_on(self, tmp_path):
        # 9e18 - (-9e18) exceeds the int64 range.
        path = write_csv(tmp_path / "t.csv", ["9000000000000000000,20", "-9000000000000000000,10"])
        trace = ingest_csv(path)
        assert trace.timestamps.tolist() == [-9 * 10**18, 9 * 10**18]
        assert trace.throughput.tolist() == [10.0, 20.0]
        check_timestamp_gaps(trace)

    def test_decimal_timestamps_above_2_53_ingest_exactly(self, tmp_path):
        # A float64 rounds 2**53 + 1 and 2**53 + 3 to an even neighbour; -2**63 is int64's lowest.
        path = write_csv(tmp_path / "t.csv", ["9007199254740993.0,10", "9007199254740994.0,20",
                                              "9.007199254740995e15,30", "-9223372036854775808.0,40"])
        trace = ingest_csv(path)
        assert trace.timestamps.tolist() == [-2**63, 2**53 + 1, 2**53 + 2, 2**53 + 3]

    @pytest.mark.parametrize("cell, message", [
        ("1.5", "not a whole number"),
        ("9007199254740993.5", "not a whole number"),  # a float64 reads 2**53 + 2
        ("1e-400", "not a whole number"),  # a float64 reads 0
        ("1e-999999999", "not a whole number"),
        ("inf", "not a whole number"),
        ("nan", "not a whole number"),
        ("9223372036854775808.0", "outside the 64-bit integer range"),
        ("1e400", "outside the 64-bit integer range"),
        ("1e999999999", "outside the 64-bit integer range"),
        ("nan123", "not an integer"),
        ("1__0.0", "not an integer"),
        ("0x10", "not an integer"),
        ("", "not an integer"),
    ])
    def test_timestamps_that_are_not_whole_int64_numbers_are_rejected(self, tmp_path, cell, message):
        path = write_csv(tmp_path / "t.csv", ["0,10", f"{cell},20"])
        with pytest.raises(ParseError, match=message) as err:
            ingest_csv(path)
        assert (err.value.row, err.value.column) == (3, "timestamp")

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

    def test_timestamps_that_are_not_whole_seconds_are_rejected(self):
        # A cast to int64 would truncate them: phase15 [1, 1] and minute [0, 1].
        with pytest.raises(ValueError, match="whole numbers of seconds"):
            derive_time_features(np.array([1.7, 61.2]))

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
        bin_features = riskcast.backbone.BinnedFeatures.of
        monkeypatch.setattr(riskcast.backbone.BinnedFeatures, "of",
                            staticmethod(lambda X: shapes.append(X.shape) or bin_features(X)))
        ds = make_windows(constant_trace(400), 10, 5)
        assert ds.train is ds.train
        assert ds.calibration is ds.calibration and ds.test is ds.test
        params = BackboneParams(n_trees=2, max_depth=2, min_samples_leaf=5)
        with Workers(ds.train, ds.calibration) as workers:
            QuantileEvaluator(workers, params)(0.3)
            train_point_model(workers, params)
        assert shapes == [ds.train.X.shape]

    def test_targets_are_read_only_views_of_the_throughput(self):
        trace = generate_synthetic(SyntheticSpec(length=300, seed=5, base_level=80.0, noise=UniformNoise(20.0)))
        ds = make_windows(trace, 10, 4)
        for Y in (ds.Y, ds.train.Y, ds.calibration.Y, ds.test.Y):
            assert not Y.flags.writeable
            assert np.shares_memory(Y, trace.throughput)
            assert all(Y[:, h].flags.c_contiguous for h in range(4))
        assert ds.X.series[0] is trace.throughput  # a read-only array passes through uncopied

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

    def test_step_shorter_than_the_usual_one_is_rejected(self):
        ts = np.array([0, 2, 4, 5, *range(7, 200, 2)])  # 4 -> 5 before row 3
        trace = Trace("short-step", ts, np.full(ts.size, 10.0))
        with pytest.raises(TimestampGap, match=r"before row 3: step 1 is shorter than the trace's usual step 2;"):
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
        with pytest.raises(ValueError):
            SyntheticSpec(length=0, seed=0, base_level=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(length=10, seed=0, base_level=1.0, handover_period=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SyntheticSpec(length=10, seed=-1, base_level=1.0)

    @pytest.mark.parametrize("start, length", [(2**63 - 99, 100), (-2**63 - 1, 10), (0, 2**63 + 1)],
                             ids=["last-beyond-max", "first-below-min", "length-beyond-max"])
    def test_timestamps_beyond_int64_are_rejected(self, start, length):
        with pytest.raises(ValueError, match="outside the 64-bit integer range"):
            SyntheticSpec(length=length, seed=0, base_level=1.0, start_timestamp=start)

    def test_timestamps_may_reach_both_ends_of_int64(self):
        last = generate_synthetic(SyntheticSpec(length=100, seed=0, base_level=1.0, start_timestamp=2**63 - 100))
        first = generate_synthetic(SyntheticSpec(length=100, seed=0, base_level=1.0, start_timestamp=-2**63))
        assert last.timestamps[-1] == 2**63 - 1 and first.timestamps[0] == -2**63
        assert np.all(np.diff(last.timestamps) == 1) and np.all(np.diff(first.timestamps) == 1)

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

    @pytest.mark.parametrize("timestamps", [
        [0.5, 1.7, 2.2],  # was truncated to [0, 1, 2]
        [0.0, 1.0, 2.5],
        [0.0, 1.0, np.nan],
        [0.0, 1.0, np.inf],
        [-np.inf, 0.0, 1.0],
        [0.0, 1.0, 2.0**63],  # one past int64's largest
        np.array([0, 1, 2**63], dtype=np.uint64),
        [0, 1, 2**70],
    ], ids=["fractions", "one-fraction", "nan", "inf", "-inf", "float-past-int64", "uint64-past-int64",
            "int-past-int64"])
    def test_rejects_timestamps_that_are_not_whole_int64_seconds(self, timestamps):
        with pytest.raises(ValueError, match="whole numbers of seconds within the 64-bit integer range"):
            Trace("bad", timestamps, [1.0, 2.0, 3.0])

    def test_whole_float_timestamps_pass(self):
        assert Trace("whole", [0.0, 1.0, 3.0], [1.0, 2.0, 3.0]).timestamps.tolist() == [0, 1, 3]
        low = Trace("low", [-(2.0**63), 0.0], [1.0, 2.0])
        assert low.timestamps.tolist() == [-(2**63), 0] and low.timestamps.dtype == np.int64
        top = np.array([0, 2**63 - 1], dtype=np.uint64)
        assert Trace("top", top, [1.0, 2.0]).timestamps.tolist() == [0, 2**63 - 1]

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

    @pytest.mark.parametrize("steps, row, longer", [
        ([2**55, 2**55 + 1, 2**55], 2, True),  # the median is 2**55
        ([2**60, 2**60 + 1], 2, True),  # the median is 2**60 + 1/2
        ([2**55 + 1, 2**55, 2**55 + 1], 2, False),
    ], ids=["longer", "longer-than-a-half-step-median", "shorter"])
    def test_steps_that_float64_cannot_tell_apart_are_compared_exactly(self, steps, row, longer):
        # Above 2**53 these steps round to one float64 value.
        assert len({float(step) for step in steps}) == 1
        trace = Trace("huge", np.cumsum([0, *steps]), np.ones(len(steps) + 1))
        kind = "gap" if longer else "step"
        with pytest.raises(TimestampGap, match=f"timestamp {kind} before row {row}: step {steps[row - 1]} "):
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

    @pytest.mark.parametrize("rows, Y_shape", [((50, 50), (40, 1)), ((50, 40), (50, 1)), ((50, 50), (50,))],
                             ids=["Y-rows", "origin-rows", "Y-1d"])
    def test_samples_rows_must_agree(self, rows, Y_shape):
        X_rows, origin_rows = rows
        with pytest.raises(ValueError, match="one row per sample"):
            Samples(np.zeros((X_rows, 2)), np.zeros(Y_shape), np.arange(origin_rows), ("a", "b"))

    def test_freeze_copies_writable_arrays_and_passes_read_only_ones_through(self):
        base = np.arange(12.0).reshape(3, 4)
        frozen = _freeze(base[:, ::2])
        assert not frozen.flags.writeable and frozen.flags.c_contiguous
        assert not np.shares_memory(frozen, base)
        assert frozen.tolist() == [[0.0, 2.0], [4.0, 6.0], [8.0, 10.0]]
        assert base.flags.writeable
        view = np.lib.stride_tricks.sliding_window_view(base.ravel(), 3)
        assert _freeze(view) is view

    def test_callers_arrays_stay_writable_and_unchanged(self):
        ts, tp, cloud = np.arange(6), np.linspace(1.0, 6.0, 6), np.full(6, 50.0)
        trace = Trace("t", ts, tp, aux={"cloud_pct": cloud})
        X, Y, origins = np.ones((4, 2)), np.full((4, 1), 3.0), np.arange(4)
        samples = Samples(X, Y, origins, ["a", "b"])
        for given in (ts, tp, cloud, X, Y, origins):
            assert given.flags.writeable
        for held in (trace.timestamps, trace.throughput, trace.aux["cloud_pct"], samples.X, samples.Y,
                     samples.origin_index):
            assert not held.flags.writeable
        tp[0], Y[0, 0] = -1.0, -1.0  # the caller may write to its own arrays; the containers keep theirs
        assert trace.throughput[0] == 1.0 and samples.Y[0, 0] == 3.0
        assert ts.tolist() == list(range(6)) and X.tolist() == [[1.0, 1.0]] * 4
        assert samples.layout == ("a", "b")

    def test_builders_hand_the_trace_arrays_it_keeps_uncopied(self, tmp_path, monkeypatch):
        passed = []
        trace_class = riskcast.data.Trace
        monkeypatch.setattr(riskcast.data, "Trace", lambda **kwargs: passed.append(kwargs) or trace_class(**kwargs))
        path = tmp_path / "trace.csv"
        path.write_text("timestamp,throughput_mbps,elevation_deg\n1,5.0,40.0\n0,4.0,41.0\n")
        traces = [generate_synthetic(SyntheticSpec(length=50, seed=2, base_level=9.0, noise=UniformNoise(3.0))),
                  ingest_csv(str(path))]
        assert len(passed) == 2
        for trace, given in zip(traces, passed):
            assert trace.throughput is given["throughput"]
            for key, series in trace.aux.items():
                assert series is given["aux"][key]
        assert traces[1].aux_keys == ("elevation_deg",)

    @pytest.mark.parametrize("Y, train_end, cal_end, message", [
        (-1.0, 1, 2, "targets must be non-negative"),
        (1.0, 3, 2, "split boundaries out of order"),
        (1.0, 1, 5, "split boundaries out of order"),
    ], ids=["negative-targets", "cal-before-train", "cal-past-end"])
    def test_windowed_dataset_checks_targets_and_split_bounds(self, Y, train_end, cal_end, message):
        with pytest.raises(ValueError, match=message):
            WindowedDataset(np.zeros((4, 2)), np.full((4, 1), Y), np.arange(4), ("a", "b"), train_end, cal_end)

    def test_samples_arrays_are_read_only(self):
        samples = Samples(np.zeros((4, 2)), np.zeros((4, 1)), np.arange(4), ("a", "b"))
        for write in (
            lambda: samples.X.__setitem__((0, 0), 1.0),
            lambda: samples.Y.__setitem__((0, 0), 1.0),
            lambda: samples.origin_index.__setitem__(0, 9),
        ):
            with pytest.raises(ValueError):
                write()
