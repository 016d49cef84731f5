from __future__ import annotations

import warnings

import numpy as np
import pytest

from riskcast.admission import AdmissionReport, admit, compare, simulate
from riskcast.errors import InvalidBandwidth, SlotMismatch
from riskcast.metrics import PredictionBatch, subsets


class TestAdmit:
    def test_worked_example(self):
        out = admit(57.0, 33.0, 10.0)
        assert (out.n_admit, out.n_oracle, out.n_served, out.n_drop) == (5, 3, 3, 2)

    def test_underestimation_is_safe(self, rng):
        for _ in range(50):
            y_true = float(rng.uniform(0, 200))
            y_safe = float(rng.uniform(0, y_true)) if y_true > 0 else 0.0
            assert admit(y_safe, y_true, 10.0).n_drop == 0

    def test_zero_forecast_admits_nothing(self):
        out = admit(0.0, 123.0, 10.0)
        assert out.n_admit == 0 and out.n_drop == 0

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidBandwidth):
            admit(10.0, 10.0, 0.0)
        with pytest.raises(InvalidBandwidth):
            admit(10.0, 10.0, -1.0)

    def test_a_bandwidth_that_overflows_a_session_count_is_rejected(self):
        with pytest.raises(InvalidBandwidth, match="1e-320"):
            admit(300.0, 100.0, 1e-320)
        with pytest.raises(InvalidBandwidth, match="1e-320"):
            admit(100.0, 300.0, 1e-320)
        assert admit(300.0, 100.0, 1e-300).n_drop > 0

    @pytest.mark.parametrize("y_safe, y_true", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan), (-1.0, 1.0)])
    def test_throughput_that_is_not_finite_and_non_negative_is_rejected(self, y_safe, y_true):
        with pytest.raises(ValueError, match="finite and non-negative"):
            admit(y_safe, y_true, 1.0)

    def test_identities(self, rng):
        for _ in range(200):
            y_safe, y_true = rng.uniform(0, 300, size=2)
            b = float(rng.uniform(0.5, 30))
            out = admit(float(y_safe), float(y_true), b)
            assert out.n_served == min(out.n_admit, out.n_oracle)
            assert out.n_drop == max(out.n_admit - out.n_oracle, 0)
            assert out.n_served + out.n_drop == out.n_admit


class TestSimulate:
    def test_perfect_predictions(self, rng):
        truths = rng.uniform(0, 150, size=(20, 4))
        report = simulate(PredictionBatch(truths.copy(), truths), 10.0)
        assert report.mean_dropped == 0
        assert report.violation_rate == 0
        assert report.p95_dropped == 0

    def test_constant_offset_drops_one_everywhere(self):
        truths = np.arange(1, 21, dtype=float).reshape(4, 5) * 10.0  # multiples of b
        preds = truths + 10.0
        report = simulate(PredictionBatch(preds, truths), 10.0)
        assert report.mean_dropped == 1.0
        assert report.violation_rate == 1.0
        assert report.p95_dropped == 1.0

    def test_matches_scalar_loop(self, rng):
        truths = rng.uniform(0, 200, size=(30, 6))
        preds = np.maximum(truths + rng.normal(0, 30, size=truths.shape), 0.0)
        b = 10.0
        report = simulate(PredictionBatch(preds, truths), b)
        drops = [
            admit(float(p), float(t), b).n_drop
            for p, t in zip(preds.ravel(), truths.ravel())
        ]
        assert report.mean_dropped == pytest.approx(np.mean(drops), abs=1e-12)
        assert report.violation_rate == pytest.approx(np.mean(np.asarray(drops) > 0), abs=1e-12)
        assert report.p95_dropped == pytest.approx(np.percentile(drops, 95), abs=1e-9)

    def test_monotone_safety(self, rng):
        truths = rng.uniform(0, 200, size=(25, 4))
        preds = np.maximum(truths + rng.normal(0, 25, size=truths.shape), 0.0)
        smaller = np.maximum(preds - rng.uniform(0, 15, size=preds.shape), 0.0)
        base = simulate(PredictionBatch(preds, truths), 10.0)
        safer = simulate(PredictionBatch(smaller, truths), 10.0)
        assert safer.mean_dropped <= base.mean_dropped
        assert safer.violation_rate <= base.violation_rate

    def test_subsets(self, rng):
        truths = rng.uniform(0, 200, size=(50, 4))
        preds = truths + 12.0
        batch = PredictionBatch(preds, truths)
        report = simulate(batch, 10.0)
        by_subset = {name: simulate(b, 10.0) for name, b in subsets(batch).items()}
        assert set(by_subset) == {"all", "p30", "p10"}
        assert by_subset["all"].mean_dropped == report.mean_dropped
        assert by_subset["p30"].n_slots < report.n_slots

    def test_invalid_bandwidth(self, rng):
        truths = rng.uniform(0, 50, size=(3, 2))
        with pytest.raises(InvalidBandwidth):
            simulate(PredictionBatch(truths, truths), 0.0)

    def test_a_bandwidth_that_overflows_a_session_count_is_rejected_without_a_warning(self, rng):
        truths = rng.uniform(0, 500, size=(3, 2))
        batch = PredictionBatch(truths, truths)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidBandwidth, match="1e-320"):
                simulate(batch, 1e-320)
            report = simulate(PredictionBatch(truths + 20.0, truths), 1e-300)
        assert report.mean_dropped > 0 and np.isfinite(report.mean_dropped)


class TestCompare:
    def make(self, mean, viol, p95, n=100):
        return AdmissionReport(mean_dropped=mean, violation_rate=viol, p95_dropped=p95, n_slots=n)

    @pytest.mark.parametrize("mean, p95", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, np.inf)])
    def test_non_finite_statistics_are_rejected(self, mean, p95):
        with pytest.raises(ValueError, match="finite"):
            self.make(mean, 0.5, p95)

    @pytest.mark.parametrize("viol", [-0.1, 1.5, np.nan])
    def test_violation_rate_outside_the_unit_interval_is_rejected(self, viol):
        with pytest.raises(ValueError, match=r"violation_rate must lie in \[0, 1\]"):
            self.make(1.0, viol, 2.0)

    def test_identical_reports(self):
        a = self.make(2.0, 0.5, 4.0)
        assert compare(a, a) == {"mean_dropped": 0.0, "violation_rate": 0.0, "p95_dropped": 0.0}

    def test_halving(self):
        base = self.make(2.0, 0.4, 6.0)
        cand = self.make(1.0, 0.2, 3.0)
        out = compare(base, cand)
        assert out["mean_dropped"] == 0.5
        assert out["violation_rate"] == 0.5
        assert out["p95_dropped"] == 0.5

    def test_zero_baseline_is_undefined(self):
        base = self.make(0.0, 0.0, 0.0)
        cand = self.make(1.0, 0.1, 2.0)
        out = compare(base, cand)
        assert out == {"mean_dropped": None, "violation_rate": None, "p95_dropped": None}

    def test_slot_mismatch(self):
        with pytest.raises(SlotMismatch):
            compare(self.make(1, 0.1, 2, n=10), self.make(1, 0.1, 2, n=20))
