from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from riskcast.errors import EmptyBatch
from riskcast.metrics import (
    PredictionBatch,
    SafetyReport,
    mae,
    mpe,
    over_rate,
    p95_pos_err,
    rmse,
    safety_report,
    subset_mask,
    subsets,
)


def batch_of(preds, truths):
    return PredictionBatch(np.asarray(preds, dtype=float), np.asarray(truths, dtype=float))


# Scalar-loop oracles, deliberately free of numpy vectorization.

def oracle_metrics(batch):
    preds = batch.preds.ravel().tolist()
    truths = batch.truths.ravel().tolist()
    n = len(preds)
    abs_errs, sq_errs, pos_errs = [], [], []
    n_over = 0
    for p, t in zip(preds, truths):
        e = p - t
        abs_errs.append(abs(e))
        sq_errs.append(e * e)
        pos_errs.append(e if e > 0 else 0.0)
        if p > t:
            n_over += 1
    return {
        "mae": math.fsum(abs_errs) / n,
        "rmse": math.sqrt(math.fsum(sq_errs) / n),
        "over_rate": n_over / n,
        "mpe": math.fsum(pos_errs) / n,
        "p95_pos_err": oracle_percentile(pos_errs, 95.0),
    }


def oracle_percentile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    frac = rank - lo
    if lo + 1 == len(ordered):
        return ordered[lo]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


class TestUnitCases:
    def test_mae(self):
        assert mae(batch_of([[10, 10]], [[10, 10]])) == 0
        assert mae(batch_of([[12]], [[10]])) == 2
        assert mae(batch_of([[11, 7], [10, 14]], [[10, 10], [10, 12]])) == 1.5

    def test_over_rate_strictness(self):
        assert over_rate(batch_of([[1, 2]], [[5, 5]])) == 0
        assert over_rate(batch_of([[9, 9]], [[5, 5]])) == 1
        assert over_rate(batch_of([[5, 5]], [[5, 5]])) == 0  # ties are not overestimates

    def test_mpe(self):
        assert mpe(batch_of([[1, 2]], [[5, 5]])) == 0
        assert mpe(batch_of([[14, 8]], [[10, 10]])) == 2.0

    def test_p95(self):
        assert p95_pos_err(batch_of([[13.0] * 4], [[10.0] * 4])) == 3.0
        preds = np.zeros((1, 100))
        preds[0, 0] = 10.0
        assert p95_pos_err(PredictionBatch(preds, np.zeros((1, 100)))) == 0.0

    def test_rmse(self):
        assert rmse(batch_of([[10]], [[10]])) == 0
        assert rmse(batch_of([[13]], [[10]])) == 3
        assert rmse(batch_of([[10, 14]], [[10, 10]])) == pytest.approx(math.sqrt(8))

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            PredictionBatch(np.empty((0, 3)), np.empty((0, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PredictionBatch(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("preds, truths, message", [
        ([1.0, np.nan], [1.0, 2.0], "non-finite"),
        ([1.0, 2.0], [np.inf, 2.0], "non-finite"),
        ([1.0, 2.0], [-0.5, 2.0], "truths must be non-negative"),
    ], ids=["nan-pred", "inf-truth", "negative-truth"])
    def test_rejects_non_finite_values_and_negative_truths(self, preds, truths, message):
        with pytest.raises(ValueError, match=message):
            batch_of(preds, truths)


class TestOracleEquivalence:
    def test_randomized_batches(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 120))
            h = int(rng.integers(1, 16))
            truths = rng.uniform(0, 300, size=(n, h))
            preds = truths + rng.normal(0, 40, size=(n, h))
            batch = PredictionBatch(preds, truths)
            expected = oracle_metrics(batch)
            assert mae(batch) == pytest.approx(expected["mae"], abs=1e-9)
            assert rmse(batch) == pytest.approx(expected["rmse"], abs=1e-9)
            assert over_rate(batch) == pytest.approx(expected["over_rate"], abs=1e-12)
            assert mpe(batch) == pytest.approx(expected["mpe"], abs=1e-9)
            assert p95_pos_err(batch) == pytest.approx(expected["p95_pos_err"], abs=1e-9)



finite_errors = st.lists(
    st.floats(min_value=-200, max_value=200, allow_nan=False), min_size=1, max_size=60
)


class TestProperties:
    @given(errors=finite_errors)
    @settings(max_examples=200, deadline=None)
    def test_mpe_never_exceeds_mae(self, errors):
        truths = np.full((1, len(errors)), 100.0)
        batch = PredictionBatch(truths + np.asarray(errors), truths)
        assert mpe(batch) <= mae(batch) + 1e-9

    # Scaling by a power of two is exact, so it keeps every pred > truth
    # comparison. An inexact factor can round 100 + e and 100 to the same
    # float, as 41.48346321986041 does for this example's error.
    @given(errors=finite_errors, factor=st.integers(-6, 5).map(lambda k: 2.0**k))
    @example(errors=[7.916378559278189e-15], factor=32.0)
    @settings(max_examples=100, deadline=None)
    def test_over_rate_scale_invariance(self, errors, factor):
        truths = np.full((1, len(errors)), 100.0)
        preds = truths + np.asarray(errors)
        a = PredictionBatch(preds, truths)
        b = PredictionBatch(preds * factor, truths * factor)
        assert over_rate(a) == over_rate(b)

    @given(errors=finite_errors, shift=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_conservatism_is_monotone_safe(self, errors, shift):
        truths = np.full((1, len(errors)), 150.0)
        preds = truths + np.asarray(errors)
        base = PredictionBatch(preds, truths)
        safer = PredictionBatch(preds - shift, truths)
        assert over_rate(safer) <= over_rate(base)
        assert mpe(safer) <= mpe(base) + 1e-12
        assert p95_pos_err(safer) <= p95_pos_err(base) + 1e-12


class TestSubsets:
    def test_uniform_ranks(self):
        truths = np.arange(1.0, 101.0).reshape(10, 10)
        batch = PredictionBatch(np.zeros_like(truths), truths)
        mask = subset_mask(batch, 30.0)
        assert set(truths[mask].tolist()) == set(np.arange(1.0, 31.0).tolist())

    def test_degenerate_ties_select_everything(self):
        truths = np.full((5, 4), 7.0)
        batch = PredictionBatch(np.zeros_like(truths), truths)
        assert subset_mask(batch, 30.0).all()
        assert subset_mask(batch, 10.0).all()

    def test_mask_matches_sort_oracle(self, rng):
        truths = rng.uniform(0, 200, size=(40, 8))
        batch = PredictionBatch(np.zeros_like(truths), truths)
        for pct in (30.0, 10.0):
            threshold = oracle_percentile(truths.ravel().tolist(), pct)
            expected = truths <= threshold
            assert np.array_equal(subset_mask(batch, pct), expected)

    @settings(max_examples=150, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=10),
                  elements=st.floats(0.0, 1e300)))
    def test_subsets_are_never_empty(self, truths):
        batch = PredictionBatch(np.zeros_like(truths), truths)
        # The smallest truth lies at or below every percentile of the batch.
        assert subset_mask(batch, 30.0).any()
        assert subset_mask(batch, 10.0).any()
        assert list(subsets(batch)) == ["all", "p30", "p10"]

    @pytest.mark.parametrize("pct", [0.0, 100.0, -5.0, 150.0])
    def test_percentile_outside_the_open_interval_is_rejected(self, pct):
        with pytest.raises(ValueError, match=r"percentile must lie in \(0, 100\)"):
            subset_mask(batch_of([1.0, 2.0], [1.0, 2.0]), pct)

    def test_mask_fraction_near_percentile(self, rng):
        truths = rng.uniform(0, 200, size=(100, 15))
        batch = PredictionBatch(np.zeros_like(truths), truths)
        for pct in (30.0, 10.0):
            frac = subset_mask(batch, pct).mean()
            assert abs(frac - pct / 100) <= 0.02


class TestSafetyReport:
    @pytest.mark.parametrize("fields, message", [
        ({"over_rate": 1.5}, r"over_rate must lie in \[0, 1\]"),
        ({"over_rate": -0.1}, r"over_rate must lie in \[0, 1\]"),
        ({"mpe": 3.0}, "mpe cannot exceed mae"),
        ({"p95_pos_err": -1.0}, "p95_pos_err must be non-negative"),
    ], ids=["over-rate-above-1", "over-rate-negative", "mpe-above-mae", "negative-p95"])
    def test_rejects_inconsistent_metrics(self, fields, message):
        valid = {"mae": 2.0, "rmse": 2.5, "over_rate": 0.5, "mpe": 1.0, "p95_pos_err": 4.0, "n_elements": 10}
        with pytest.raises(ValueError, match=message):
            SafetyReport(**{**valid, **fields})

    def test_perfect_predictions(self):
        truths = np.linspace(1, 50, 50).reshape(5, 10)
        report = safety_report(PredictionBatch(truths.copy(), truths))
        assert report.mae == 0 and report.rmse == 0
        assert report.over_rate == 0 and report.mpe == 0 and report.p95_pos_err == 0

    def test_subset_of_full_mask_equals_global(self, rng):
        truths = rng.uniform(0, 100, size=(30, 5))
        preds = truths + rng.normal(0, 10, size=truths.shape)
        batch = PredictionBatch(preds, truths)
        report = safety_report(batch)
        by_subset = {name: safety_report(b) for name, b in subsets(batch).items()}
        assert by_subset["all"].mae == report.mae
        assert by_subset["all"].n_elements == report.n_elements
