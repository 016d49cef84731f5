from __future__ import annotations

import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_trainer
import riskcast.backbone
from riskcast.backbone import (
    BackboneParams,
    BinnedFeatures,
    BoostedTreesRegressor,
    DecisionTree,
    QuantileModel,
    Workers,
    pinball_loss,
    pinball_subgradient,
    _fit_boosted_column,
    _best_split,
    _count,
    _exact_grid,
    _grow_tree,
    _leaf_quantile,
    _root_histograms,
    train_point_model,
    train_quantile_model,
)
from riskcast.data import GaussianNoise, Samples, SyntheticSpec, generate_synthetic, make_windows
from riskcast.errors import (
    EmptyTrainingSet, FitFailure, InvalidTau, LayoutMismatch, NonFiniteFeatures, NonFiniteTargets,
)

from conftest import fit_model, iid_samples


class TestPinball:
    def test_unit_cases(self):
        assert pinball_loss(10.0, 8.0, 0.5) == 1.0
        assert pinball_loss(10.0, 12.0, 0.25) == 1.5
        assert pinball_loss(7.0, 7.0, 0.9) == 0.0

    def test_zero_iff_equal(self, rng):
        y, y_hat = rng.uniform(-5, 5, size=2)
        if y != y_hat:
            assert pinball_loss(y, y_hat, 0.3) > 0

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_tau(self, tau):
        with pytest.raises(InvalidTau):
            pinball_loss(1.0, 2.0, tau)

    def test_convexity(self, rng):
        for _ in range(200):
            y = rng.uniform(-10, 10)
            a, b = rng.uniform(-10, 10, size=2)
            lam = rng.uniform()
            tau = rng.uniform(0.05, 0.95)
            mid = lam * a + (1 - lam) * b
            assert pinball_loss(y, mid, tau) <= (
                lam * pinball_loss(y, a, tau) + (1 - lam) * pinball_loss(y, b, tau) + 1e-12
            )

    def test_subgradient_matches_finite_difference(self, rng):
        step = 1e-6
        checked = 0
        while checked < 500:
            y = rng.uniform(-10, 10)
            y_hat = rng.uniform(-10, 10)
            tau = rng.uniform(0.05, 0.95)
            if abs(y - y_hat) <= 10 * step:
                continue
            fd = (pinball_loss(y, y_hat + step, tau) - pinball_loss(y, y_hat - step, tau)) / (2 * step)
            g = pinball_subgradient(y, y_hat, tau)
            assert fd == pytest.approx(g, rel=1e-6, abs=1e-9)
            checked += 1

    def test_subgradient_tie_break_at_kink(self):
        # zero residual takes the non-positive-residual side
        assert pinball_subgradient(5.0, 5.0, 0.3) == pytest.approx(0.7)


def stump_model(horizon=1, base_score=0.0):
    tree = DecisionTree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([5.0, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, 2.0, 8.0]),
    )
    reg = BoostedTreesRegressor(base_score=base_score, learning_rate=1.0, trees=[tree])
    return QuantileModel(tau=0.5, feature_layout=("f0", "f1"), horizon_models=[reg] * horizon)


class TestPredict:
    def test_single_split_stump(self):
        model = stump_model(horizon=2)
        out = model.predict(np.array([[3.0, 99.0]]), ("f0", "f1"))
        assert out.tolist() == [[2.0, 2.0]]
        out = model.predict(np.array([[6.0, -1.0]]), ("f0", "f1"))
        assert out.tolist() == [[8.0, 8.0]]

    def test_negative_output_clamped_to_zero(self):
        model = stump_model(base_score=-3.0)  # leaves at -3 + 2 and -3 + 8
        assert model.predict(np.array([[1.0, 2.0], [6.0, 2.0]]), ("f0", "f1")).tolist() == [[0.0], [5.0]]

    def test_a_model_needs_a_horizon_model(self):
        with pytest.raises(ValueError, match="at least one horizon step"):
            QuantileModel(tau=0.5, feature_layout=("f0", "f1"), horizon_models=[])

    def test_a_level_is_checked_only_where_it_is_set(self):
        # The point model is fitted at no level, so its tau is None.
        regressors = stump_model().horizon_models
        assert QuantileModel(tau=None, feature_layout=("f0", "f1"), horizon_models=regressors).tau is None
        with pytest.raises(InvalidTau):
            QuantileModel(tau=1.2, feature_layout=("f0", "f1"), horizon_models=regressors)

    def test_layout_mismatch(self):
        model = stump_model()
        with pytest.raises(LayoutMismatch):
            model.predict(np.array([[1.0, 2.0]]), ("f0", "other"))
        with pytest.raises(LayoutMismatch):
            model.predict(np.array([[1.0, 2.0, 3.0]]), ("f0", "f1", "f2"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features(self, bad):
        model = stump_model()
        X = np.array([[1.0, 2.0], [3.0, bad], [4.0, bad]])
        with pytest.raises(NonFiniteFeatures, match="holds 2 non-finite values, the first in column 'f1'"):
            model.predict(X, ("f0", "f1"))
        X[0, 0] = bad
        with pytest.raises(NonFiniteFeatures, match="holds 3 non-finite values, the first in column 'f0'"):
            model.predict(X, ("f0", "f1"))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_depth=st.integers(0, 10),
        n_rows=st.integers(0, 300),
        n_features=st.integers(1, 4),
    )
    @example(seed=0, max_depth=0, n_rows=20, n_features=1)  # a single leaf
    @example(seed=1, max_depth=10, n_rows=0, n_features=3)
    @example(seed=2, max_depth=10, n_rows=1, n_features=3)
    def test_matches_level_by_level_routing(self, seed, max_depth, n_rows, n_features):
        # Thresholds and half of the feature values come from one grid, so
        # many rows sit exactly on a threshold and must go left.
        rng = np.random.default_rng(seed)
        grid = np.arange(-4, 5) * 0.25
        tree = random_tree(rng, max_depth, n_features, grid)
        shape = (n_rows, n_features)
        X = np.where(rng.random(shape) < 0.5, rng.choice(grid, shape), rng.normal(size=shape))
        out = tree.predict(X)
        assert out.dtype == np.float64 and out.shape == (n_rows,)
        assert out.tobytes() == reference_trainer.route(tree, X).tobytes()


def random_tree(rng, max_depth, n_features, grid) -> DecisionTree:
    """A valid tree no deeper than max_depth; each node below it splits with
    probability 0.7, so most trees are unbalanced. Nodes are numbered depth-first."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(depth: int) -> int:
        node = len(feature)
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, 0.0)):
            column.append(blank)
        if depth < max_depth and rng.random() < 0.7:
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(grid))
            left[node] = build(depth + 1)
            right[node] = build(depth + 1)
        else:
            value[node] = float(rng.normal())
        return node

    build(0)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def constant_samples(n=200, value=40.0, horizon=2, n_features=3):
    layout = tuple(f"f{j}" for j in range(n_features))
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(n, n_features))
    Y = np.full((n, horizon), value)
    return Samples(X=X, Y=Y, origin_index=np.arange(n), layout=layout)


class TestTraining:
    @pytest.mark.parametrize("tau", [0.15, 0.5, 0.8])
    def test_constant_target(self, tau):
        train = constant_samples(value=40.0)
        params = BackboneParams(n_trees=20, max_depth=3, min_samples_leaf=5)
        model = fit_model(train, tau, params)
        preds = model.predict(train.X, train.layout)
        assert np.all(np.abs(preds - 40.0) < 1e-6)

    def test_constant_target_point(self):
        train = constant_samples(value=25.0)
        model = fit_model(train, None, BackboneParams(n_trees=10))
        assert model.tau is None
        preds = model.predict(train.X, train.layout)
        assert np.all(np.abs(preds - 25.0) < 1e-6)

    def test_uninformative_features_hit_target_quantile(self, rng):
        train = iid_samples(rng, n=4000, low=50.0, high=150.0)
        tau = 0.3
        params = BackboneParams(n_trees=30, max_depth=3, min_samples_leaf=200)
        model = fit_model(train, tau, params)
        preds = model.predict(train.X, train.layout)
        target = np.quantile(train.Y[:, 0], tau)
        assert abs(preds.mean() - target) <= 0.02 * 100.0  # 2% of target range

    def test_uninformative_features_hit_mean(self, rng):
        train = iid_samples(rng, n=4000, low=50.0, high=150.0)
        params = BackboneParams(n_trees=30, max_depth=3, min_samples_leaf=200)
        model = fit_model(train, None, params)
        preds = model.predict(train.X, train.layout)
        assert abs(preds.mean() - train.Y[:, 0].mean()) <= 0.02 * 100.0

    def test_determinism(self, rng):
        # Training draws nothing at random, so two fits of one split agree bit for bit.
        train = iid_samples(rng, n=500, horizon=2)
        params = BackboneParams(n_trees=15, max_depth=4)
        for tau in (0.25, None):
            a, b = (fit_model(train, tau, params).horizon_models for _ in range(2))
            assert [regressor_bytes(m) for m in a] == [regressor_bytes(m) for m in b]

    def test_quantile_monotonicity_on_aggregate(self, rng):
        train = iid_samples(rng, n=2000)
        params = BackboneParams(n_trees=20, max_depth=3, min_samples_leaf=50)
        with Workers(train, train) as workers:
            low = train_quantile_model(workers, 0.2, params)
            high = train_quantile_model(workers, 0.45, params)
        mean_low = low.predict(train.X, train.layout).mean()
        mean_high = high.predict(train.X, train.layout).mean()
        assert mean_low <= mean_high

    def test_learns_informative_split(self, rng):
        # one binary feature controls the level; the model must find it
        n = 2000
        X = np.zeros((n, 2))
        X[:, 0] = rng.integers(0, 2, size=n)
        X[:, 1] = rng.uniform(0, 1, size=n)
        Y = np.where(X[:, 0] > 0.5, 80.0, 20.0).reshape(-1, 1)
        train = Samples(X=X, Y=Y, origin_index=np.arange(n), layout=("flag", "junk"))
        model = fit_model(train, None, BackboneParams(n_trees=60, max_depth=2, min_samples_leaf=10))
        preds = model.predict(np.array([[1.0, 0.3], [0.0, 0.9]]), ("flag", "junk"))
        assert preds[0, 0] == pytest.approx(80.0, abs=0.5)
        assert preds[1, 0] == pytest.approx(20.0, abs=0.5)

    def test_empty_training_set(self):
        empty = Samples(
            X=np.empty((0, 2)), Y=np.empty((0, 1)), origin_index=np.empty(0, dtype=int),
            layout=("a", "b"),
        )
        with pytest.raises(EmptyTrainingSet):
            Workers(empty, empty)

    def test_invalid_tau(self):
        train = constant_samples()
        with pytest.raises(InvalidTau):
            train_quantile_model(Workers(train, train), 1.2, BackboneParams())

    def test_coverage_on_feature_independent_noise(self, rng):
        # fraction of targets below the forecast should track tau out of sample
        n = 12_000
        X = rng.uniform(0, 1, size=(n, 3))
        Y = (100.0 + rng.uniform(-30, 30, size=(n, 1)))
        samples = Samples(X=X, Y=Y, origin_index=np.arange(n), layout=("a", "b", "c"))
        train = Samples(samples.X[:8000], samples.Y[:8000], samples.origin_index[:8000], samples.layout)
        held = Samples(samples.X[8000:], samples.Y[8000:], samples.origin_index[8000:], samples.layout)
        params = BackboneParams(n_trees=25, max_depth=3, min_samples_leaf=200)
        with Workers(train, held) as workers:
            for tau in (0.15, 0.25, 0.40):
                model = train_quantile_model(workers, tau, params)
                preds = model.predict(held.X, held.layout)
                below = np.mean(held.Y < preds)
                assert abs(below - tau) <= 0.05


COLUMN_KINDS = ("constant", "two_valued", "tied", "many")


def make_column(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "two_valued":
        return rng.integers(0, 2, size=n) * 3.0
    if kind == "tied":
        return rng.integers(0, 9, size=n) * 0.25
    return rng.normal(size=n)  # more than 256 distinct values once n > 256


def check_bins_against_the_reference_trainer(X: np.ndarray) -> BinnedFeatures:
    """BinnedFeatures.of(X), once its segments, groups, cuts and cells agree
    with the reference trainer's bins of X."""
    binned = BinnedFeatures.of(X)
    codes, cuts = reference_trainer._bin_features(X)
    varying = {j for j in range(X.shape[1]) if np.unique(X[:, j]).size > 1}
    kept = set(binned.feature.tolist())
    assert kept <= varying

    def repeats(j: int) -> bool:  # the bins of a lower kept feature with as many cuts
        return any(cuts[i].size == cuts[j].size and np.array_equal(codes[:, i], codes[:, j]) for i in kept if i < j)
    assert not any(repeats(j) for j in kept)
    assert all(repeats(j) for j in varying - kept)
    # Segments lie in feature order, each as wide as the power of two
    # above its cut count, and the groups are the maximal runs of one
    # width, tiling the cells.
    assert np.all(np.diff(binned.feature) >= 0)
    features, firsts, widths = (a.tolist() for a in np.unique(binned.feature, return_index=True,
                                                               return_counts=True))
    assert widths == [1 << cuts[f].size.bit_length() for f in features]
    runs = []
    for first, width in zip(firsts, widths):
        if runs and runs[-1][2] == width:
            runs[-1][1] += width
        else:
            runs.append([first, first + width, width])
    assert [list(group) for group in binned.groups] == runs
    assert (runs[-1][1] if runs else 0) == binned.n_cells
    for c in range(binned.n_cells):
        s = features.index(binned.feature[c])
        f, b = features[s], c - firsts[s]
        left = binned.cells[:, s] <= c
        if b < cuts[f].size:
            assert binned.cut[c] == cuts[f][b]
            assert np.array_equal(left, X[:, f] <= binned.cut[c])
        else:  # at or past the feature's last cut: every row goes left
            assert binned.cut[c] == np.inf
            assert left.all()
    return binned


class TestBinnedFeatures:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 1200),
        distinct=st.lists(st.integers(1, 1000), min_size=1, max_size=4),
    )
    # A constant, a two-valued and a tied column, and one with ties among
    # more than 256 distinct values, so its cuts are quantiles.
    @example(seed=0, n=1200, distinct=[1, 2, 9, 1000])
    # X is [0, .25, .25], [0, .25, .25] and [1, 2, 2] (columns): their bins
    # are the same, so only feature 0 keeps a segment.
    @example(seed=21389, n=3, distinct=[2, 2, 9])
    def test_a_split_at_a_cell_sends_left_the_rows_its_threshold_does(self, seed, n, distinct):
        # Column j draws from distinct[j] values on a grid, so ties are
        # common and a quantile cut can equal a value.
        rng = np.random.default_rng(seed)
        check_bins_against_the_reference_trainer(
            np.column_stack([rng.integers(0, d, size=n) * 0.25 for d in distinct]))

    def test_a_cut_that_rounds_up_to_a_value_puts_both_values_in_one_bin(self):
        # The midpoint of these adjacent floats rounds to the larger one, so
        # both lie at or below the one cut: each column's codes are all 0,
        # however its rows alternate, and feature 1 repeats feature 0.
        a, b = 1 + 2**-52, 1 + 2**-51
        assert (a + b) / 2.0 == b
        binned = check_bins_against_the_reference_trainer(
            np.column_stack([np.tile([a, b], 20), np.tile([a, a, b, b], 10)]))
        assert binned.cells.shape == (40, 1) and not binned.cells.any()

    def test_signed_zeros_are_one_value(self):
        # Column 0 is constant (-0.0 == 0.0), so only column 1 is binned,
        # and its -0.0 and 0.0 rows share a bin.
        zeros = np.tile([-0.0, 0.0], 10)
        binned = check_bins_against_the_reference_trainer(
            np.column_stack([zeros, np.tile([-0.0, 1.0, 0.0, -1.0], 5)]))
        assert set(binned.feature.tolist()) == {1}
        assert binned.cut[:2].tolist() == [-0.5, 0.5]

    def test_quantile_cuts_over_many_tied_values(self):
        # 400 values on a grid, each drawn about 5 times: more than 256
        # distinct values, so the cuts are quantiles, and some cuts fall on
        # a value and repeat before they are made unique.
        rng = np.random.default_rng(3)
        x = rng.integers(0, 400, size=2000) * 0.5
        binned = check_bins_against_the_reference_trainer(np.column_stack([x, -x, x + 1.0]))
        assert set(binned.feature.tolist()) == {0, 1}

    def test_a_decreasing_copy_keeps_its_segment(self):
        # Its bins run the other way, so its codes repeat no lower feature's.
        x = np.arange(40.0) % 7
        binned = BinnedFeatures.of(np.column_stack([x, 10.0 - x, 2.0 * x + 3.0]))
        assert set(binned.feature.tolist()) == {0, 1}

    def test_columns_of_equal_value_counts_are_told_apart_by_their_bins(self):
        # Every column holds the same values as often, so only the codes
        # themselves show which columns repeat: 3 and 4 repeat 1 and 0.
        rng = np.random.default_rng(5)
        a, b, c = (rng.permutation(np.repeat([0.0, 1.0, 2.0], 30)) for _ in range(3))
        binned = BinnedFeatures.of(np.column_stack([a, b, c, b - 1.0, 2.0 * a + 3.0]))
        assert set(binned.feature.tolist()) == {0, 1, 2}
        assert binned.cells.shape == (90, 3)

    def test_binning_holds_one_cells_matrix_and_a_few_columns(self):
        # 16 of 24 binned columns repeat an earlier one. An int64 matrix over
        # every binned column does not fit in this bound; the kept columns'
        # uint8 bin codes, n bytes each and held until cells is filled, do.
        rng = np.random.default_rng(0)
        n = 20_000
        distinct = [rng.normal(size=n), rng.integers(0, 60, size=n) * 1.0, np.arange(n) % 15.0,
                    rng.integers(0, 2, size=n) * 3.0, *(rng.integers(0, 9, size=(4, n)) * 0.25)]
        X = np.column_stack(distinct + [2.0 * x + 3.0 for x in distinct] + [x - 1.0 for x in distinct])
        BinnedFeatures.of(X[:100])  # so that what a first call loads is not counted
        tracemalloc.start()
        try:
            binned = BinnedFeatures.of(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert binned.cells.shape == (n, 8)
        assert peak < binned.cells.nbytes + 6 * n * 8


def grow_tree(binned: BinnedFeatures, resid: np.ndarray, tau: float | None, max_depth: int, min_samples_leaf: int):
    """_grow_tree on the target and root histograms that _fit_boosted_column derives from resid."""
    target = resid > 0 if tau is not None else _exact_grid(-resid)
    return _grow_tree(binned, resid, target, _root_histograms(binned, target, tau), tau, max_depth, min_samples_leaf)


class TestExactTrainer:
    """The level-wise trainer against the recursive one it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5),
        tau=st.sampled_from([0.1, 0.5, 0.9, None]),
        max_depth=st.integers(1, 6),
        min_samples_leaf=st.sampled_from([1, 7, 40, 10_000]),
        n_trees=st.integers(1, 4),
    )
    @example(seed=1, n=600, kinds=["many", "tied", "two_valued", "constant"], tau=0.1,
             max_depth=6, min_samples_leaf=7, n_trees=3)
    @example(seed=2, n=400, kinds=["tied", "many"], tau=None,
             max_depth=5, min_samples_leaf=1, n_trees=3)
    # Both siblings grow at depths 1-4, so the larger takes its counts by
    # subtraction at depth >= 3.
    @example(seed=3, n=600, kinds=["many", "tied", "two_valued"], tau=0.5,
             max_depth=5, min_samples_leaf=1, n_trees=2)
    # min_samples_leaf makes one child a leaf at depths 2 and 3 while its
    # sibling grows, so the leaf is counted and its sibling subtracts it.
    @example(seed=4, n=500, kinds=["many", "tied"], tau=0.9,
             max_depth=4, min_samples_leaf=40, n_trees=2)
    # Roots take P from their minority sign: at tau 0.1 most residuals are
    # positive, so the non-positive rows are counted; at tau 0.9 the
    # positive ones are.
    @example(seed=6, n=600, kinds=["many", "tied", "two_valued"], tau=0.1,
             max_depth=6, min_samples_leaf=1, n_trees=2)
    # Here children holding rows of only one sign (P = 0 or P = N) grow, both
    # counted and taking their histograms by subtraction.
    @example(seed=7, n=600, kinds=["many", "tied", "two_valued"], tau=0.9,
             max_depth=6, min_samples_leaf=1, n_trees=2)
    # Three width groups (2, 16 and 256 bins) and six rounds, so the root's
    # counts carry from round to round.
    @example(seed=8, n=600, kinds=["two_valued", "many", "constant", "tied"], tau=0.3,
             max_depth=4, min_samples_leaf=7, n_trees=6)
    # Bin widths 2, 256, 16, 256 and 2 alternate column by column, so each
    # column is a run of its own width and equal gains tie across runs.
    @example(seed=9, n=600, kinds=["two_valued", "many", "tied", "many", "two_valued"], tau=None,
             max_depth=5, min_samples_leaf=3, n_trees=4)
    @example(seed=9, n=600, kinds=["two_valued", "many", "tied", "many", "two_valued"], tau=0.5,
             max_depth=5, min_samples_leaf=3, n_trees=4)
    def test_matches_reference_trainer(self, seed, n, kinds, tau, max_depth, min_samples_leaf, n_trees):
        rng = np.random.default_rng(seed)
        X = np.column_stack([make_column(k, rng, n) for k in kinds])
        held = np.column_stack([make_column(k, rng, 50) for k in kinds])
        y = np.round(rng.normal(100.0, 20.0, size=n), 1) + 4.0 * X[:, 0]
        params = BackboneParams(n_trees=n_trees, max_depth=max_depth, learning_rate=0.5,
                                min_samples_leaf=min_samples_leaf)
        model = _fit_boosted_column(BinnedFeatures.of(X), y, tau, params)
        oracle = reference_trainer.fit_boosted_column(X, y, tau, params)
        assert [t.feature.size for t in model.trees] == [t.feature.size for t in oracle.trees]
        assert np.array_equal(model.predict(X), reference_trainer.predict(oracle, X))
        assert np.array_equal(model.predict(held), reference_trainer.predict(oracle, held))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=3),
        # (which column, how relabelled, placed before it): an exact copy, a
        # scaled one, or a clock lag one period earlier, which reads one less.
        repeats=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["copy", "2x+3", "x-1"]), st.booleans()),
                         min_size=1, max_size=4),
        tau=st.sampled_from([0.2, 0.7, None]),
        max_depth=st.integers(2, 5),
    )
    @example(seed=1, n=400, kinds=["tied", "many", "two_valued"], repeats=[(0, "x-1", True), (1, "copy", False),
             (2, "2x+3", True), (1, "2x+3", True)], tau=None, max_depth=5)
    @example(seed=2, n=400, kinds=["tied", "many"], repeats=[(0, "copy", False), (1, "x-1", True)],
             tau=0.2, max_depth=4)
    def test_repeated_columns_give_the_reference_trainers_trees(self, seed, n, kinds, repeats, tau, max_depth):
        # reference_trainer bins and scans every column, repeats included.
        rng = np.random.default_rng(seed)
        relabel = {"copy": lambda x: x.copy(), "2x+3": lambda x: 2.0 * x + 3.0, "x-1": lambda x: x - 1.0}

        def with_repeats(rows: int) -> np.ndarray:
            originals = [make_column(k, rng, rows) for k in kinds]
            columns = list(originals)
            for j, how, before in repeats:
                x = originals[j % len(kinds)]
                at = next(i for i, column in enumerate(columns) if column is x) if before else len(columns)
                columns.insert(at, relabel[how](x))
            return np.column_stack(columns)

        X, held = with_repeats(n), with_repeats(50)
        y = np.round(rng.normal(100.0, 20.0, size=n), 1) + 4.0 * X[:, -1]
        params = BackboneParams(n_trees=3, max_depth=max_depth, learning_rate=0.5, min_samples_leaf=5)
        binned = BinnedFeatures.of(X)
        codes, cuts = reference_trainer._bin_features(X)
        distinct = {(c.size, codes[:, j].tobytes()) for j, c in enumerate(cuts) if c.size}
        assert binned.cells.shape[1] == len(distinct)
        model = _fit_boosted_column(binned, y, tau, params)
        oracle = reference_trainer.fit_boosted_column(X, y, tau, params)
        for tree, expected in zip(model.trees, oracle.trees, strict=True):
            assert sorted(tree.feature.tolist()) == sorted(expected.feature.tolist())
            assert sorted(tree.threshold.tolist()) == sorted(expected.threshold.tolist())
        assert np.array_equal(model.predict(X), reference_trainer.predict(oracle, X))
        assert np.array_equal(model.predict(held), reference_trainer.predict(oracle, held))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(100, 400),
        kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=0, max_size=3),
        tau=st.sampled_from([0.2, 0.7, None]),
        min_samples_leaf=st.integers(1, 5),
    )
    @example(seed=1, n=400, kinds=["many", "tied"], tau=0.2, min_samples_leaf=1)
    @example(seed=2, n=400, kinds=["many", "tied"], tau=None, min_samples_leaf=1)
    # Leaves are counted so that their growing siblings can subtract: three
    # of 3 or 4 rows here, and four of 5 to 9 rows in the point fit.
    @example(seed=4, n=400, kinds=["many", "tied"], tau=0.7, min_samples_leaf=3)
    @example(seed=3, n=400, kinds=["many", "tied"], tau=None, min_samples_leaf=5)
    def test_every_node_carries_the_running_counts_of_its_own_rows(self, seed, n, kinds, tau, min_samples_leaf):
        # y jumps with flag, so the root splits it into two large halves
        # that both grow, and the larger takes its counts by subtraction. A
        # copy of flag and the tied columns are there to be repeated and
        # low-cardinality.
        rng = np.random.default_rng(seed)
        flag = make_column("two_valued", rng, n)
        X = np.column_stack([flag, *(make_column(k, rng, n) for k in kinds), 2.0 * flag + 3.0,
                             make_column("tied", rng, n)])
        y = np.round(rng.normal(100.0, 20.0, size=n), 1) + 40.0 * flag
        binned = BinnedFeatures.of(X)
        per_row = binned.cells.shape[1]
        rounds, scanned, counted = [], [], []
        grow, best_split, count = riskcast.backbone._grow_tree, riskcast.backbone._best_split, riskcast.backbone._count

        def grow_spy(binned, resid, *args):
            tree, leaf_of = grow(binned, resid, *args)
            rounds.append((resid, tree))
            return tree, leaf_of

        def scan_spy(binned, hist, tau, min_samples_leaf):
            scanned.append(hist.copy())
            return best_split(binned, hist, tau, min_samples_leaf)

        def count_spy(binned, idx, target, tau):
            hist = count(binned, idx, target, tau)
            counted.append((idx, hist.copy()))
            return hist

        params = BackboneParams(n_trees=2, max_depth=4, learning_rate=0.5, min_samples_leaf=min_samples_leaf)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(riskcast.backbone, "_grow_tree", grow_spy)
            patch.setattr(riskcast.backbone, "_best_split", scan_spy)
            patch.setattr(riskcast.backbone, "_count", count_spy)
            _fit_boosted_column(binned, y, tau, params)

        def grows(depth, idx):
            return depth < params.max_depth and idx.size >= 2 * min_samples_leaf

        # Each node's rows, routed on X from the root as DecisionTree.predict
        # routes them, and its round's target. In node order, a node is
        # scanned if it grows: above max_depth, with 2 * min_samples_leaf
        # rows. A split with a growing child counts its smaller child, the
        # left on a tie, whether or not that child grows; a split of two
        # leaves counts nothing.
        nodes, smaller = [], []
        for resid, tree in rounds:
            target = resid > 0 if tau is not None else _exact_grid(-resid)
            rows = {0: (0, np.arange(n))}
            for node in range(tree.feature.size):
                depth, idx = rows.pop(node)
                if grows(depth, idx):
                    nodes.append((idx, target))
                f = tree.feature[node]
                if f >= 0:
                    go_left = X[idx, f] <= tree.threshold[node]
                    left, right = idx[go_left], idx[~go_left]
                    rows[int(tree.left[node])] = depth + 1, left
                    rows[int(tree.right[node])] = depth + 1, right
                    if grows(depth + 1, left) or grows(depth + 1, right):
                        smaller.append((right if right.size < left.size else left, target))
            assert not rows
        assert [idx.tolist() for idx, _ in counted] == [idx.tolist() for idx, _ in smaller]
        # A root holds every row and comes with its histograms; some other node takes them by subtraction.
        roots = sum(idx.size == n for idx, _ in nodes)
        assert len(counted) < len(scanned) - roots
        # What every scan reads, and what every count gives, a leaf's too, is a fresh count of the node's rows.
        _, firsts, widths = np.unique(binned.feature, return_index=True, return_counts=True)
        for (idx, target), running in zip(nodes + smaller, scanned + [hist for _, hist in counted], strict=True):
            flat = binned.cells[idx].ravel()
            if tau is None:
                second = np.bincount(flat, weights=np.repeat(target[idx], per_row), minlength=binned.n_cells)
            else:
                second = np.bincount(binned.cells[idx[target[idx]]].ravel(), minlength=binned.n_cells)
            fresh = np.stack([np.bincount(flat, minlength=binned.n_cells).astype(np.float64), second])
            for start, stop in zip(firsts.tolist(), (firsts + widths).tolist()):
                fresh[:, start:stop] = np.cumsum(fresh[:, start:stop], axis=1)
            assert np.array_equal(running, fresh)

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_equal_gains_across_width_groups_go_to_the_lower_feature(self, wide_first):
        # Both features split the rows into the same halves at their best bin,
        # with exact sums, so the two gains are equal; they sit in the width-4
        # and width-2 groups.
        level = np.repeat([0.0, 1.0, 2.0, 3.0], 25)
        flag = (level >= 2.0) * 1.0
        X = np.column_stack([level, flag] if wide_first else [flag, level])
        resid = np.where(flag > 0, 5.0, -5.0)
        binned = BinnedFeatures.of(X)
        assert sorted(width for _, _, width in binned.groups) == [2, 4]
        tree, _ = grow_tree(binned, resid, None, 1, 1)
        codes, cuts = reference_trainer._bin_features(X)
        oracle = reference_trainer._grow_tree(codes, cuts, resid, None, 1, 1)
        assert tree.feature[0] == oracle.feature[0] == 0
        assert tree.threshold[0] == oracle.threshold[0] == (1.5 if wide_first else 0.5)

    @pytest.mark.parametrize("tau", [None, 0.3], ids=["point", "quantile"])
    @pytest.mark.parametrize("flag_first", [True, False])
    def test_equal_gains_in_the_first_and_last_of_three_width_groups_go_to_the_lower_feature(
        self, flag_first, tau
    ):
        # flag (width 2) and level (width 8) split the rows into the same
        # halves, so their best gains are equal; mid (width 4) splits every
        # half evenly and gains nothing. The lower of flag and level wins,
        # whether the first or the last width group holds it.
        level = np.repeat(np.arange(8.0), 25)
        flag = (level >= 4.0) * 1.0
        mid = level % 4
        X = np.column_stack([flag, mid, level] if flag_first else [level, mid, flag])
        resid = np.where(flag > 0, 5.0, -5.0)
        binned = BinnedFeatures.of(X)
        assert [width for _, _, width in binned.groups] == ([2, 4, 8] if flag_first else [8, 4, 2])
        tree, _ = grow_tree(binned, resid, tau, 1, 1)
        codes, cuts = reference_trainer._bin_features(X)
        oracle = reference_trainer._grow_tree(codes, cuts, resid, tau, 1, 1)
        assert tree.feature[0] == oracle.feature[0] == 0
        assert tree.threshold[0] == oracle.threshold[0] == (0.5 if flag_first else 3.5)

    @pytest.mark.parametrize("tau", [None, 0.3], ids=["point", "quantile"])
    def test_equal_gains_along_a_run_of_empty_bins_go_to_the_lowest_bin(self, tau):
        # The node holds no row with level 3 to 6, so the splits at bins 2 to
        # 6 of level all send the same rows left, and the lowest of them
        # wins. level's cells follow junk's, so its running counts start one
        # node total ahead.
        level = np.repeat(np.arange(10.0), 20)
        junk = np.tile([0.0, 1.0], 100)
        binned = BinnedFeatures.of(np.column_stack([junk, level]))
        assert [width for _, _, width in binned.groups] == [2, 16]
        node = np.flatnonzero((level <= 2) | (level >= 7))
        resid = np.where(level >= 7, 5.0, -5.0)
        target = resid > 0 if tau is not None else -resid
        c = _best_split(binned, _count(binned, node, target, tau), tau, 1)
        assert (int(binned.feature[c]), float(binned.cut[c])) == (1, 2.5)

    @pytest.mark.parametrize("tau", [None, 0.3], ids=["point", "quantile"])
    @pytest.mark.parametrize("root", ["too few rows", "constant columns", "max_depth 0"])
    def test_a_root_that_cannot_grow_is_one_leaf_over_every_row(self, root, tau, monkeypatch):
        # A root grows only at depth 0 < max_depth, with at least
        # 2 * min_samples_leaf rows and some binned column; otherwise no
        # scan runs, not even over an empty set of cells.
        rng = np.random.default_rng(5)
        X = np.ones((40, 3)) if root == "constant columns" else rng.uniform(0.0, 1.0, (40, 3))
        resid = rng.normal(0.0, 1.0, 40)
        binned = BinnedFeatures.of(X)
        assert (binned.groups == ()) == (root == "constant columns")
        min_samples_leaf = 21 if root == "too few rows" else 1
        max_depth = 0 if root == "max_depth 0" else 3

        def scan(*args):
            raise AssertionError("a root that cannot grow was scanned")

        monkeypatch.setattr(riskcast.backbone, "_best_split", scan)
        tree, leaf_of = grow_tree(binned, resid, tau, max_depth, min_samples_leaf)
        assert [a.tolist() for a in (tree.feature, tree.left, tree.right)] == [[-1], [-1], [-1]]
        assert tree.value.tolist() == [float(np.quantile(resid, tau)) if tau is not None else float(resid.mean())]
        assert leaf_of.tolist() == [0] * 40

    def test_carried_root_counts_equal_a_fresh_count_every_round(self, monkeypatch):
        # Each round's root histograms, as _grow_tree receives them, against
        # _root_histograms counting the round's signs afresh. The fits take
        # every path of the carry, and the test checks that they do.
        signs = []

        def spy(binned, resid, target, root, tau, max_depth, min_samples_leaf):
            signs.append(resid > 0)
            assert np.array_equal(target, resid > 0)
            assert root.dtype == np.int64
            assert np.array_equal(root, _root_histograms(binned, resid > 0, tau))
            return grow(binned, resid, target, root, tau, max_depth, min_samples_leaf)

        grow = riskcast.backbone._grow_tree
        monkeypatch.setattr(riskcast.backbone, "_grow_tree", spy)
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.uniform(0, 1, 400), rng.integers(0, 9, 400) * 0.25])
        y = np.round(100.0 * X[:, 0] + rng.normal(0.0, 3.0, 400), 1)
        binned = BinnedFeatures.of(X)
        seen = set()
        for tau, learning_rate in ((0.1, 1.0), (0.9, 0.05)):
            signs.clear()
            params = BackboneParams(n_trees=8, max_depth=3, learning_rate=learning_rate, min_samples_leaf=10)
            _fit_boosted_column(binned, y, tau, params)
            assert len(signs) == 8
            for before, after in zip(signs, signs[1:]):
                up, down = np.count_nonzero(after & ~before), np.count_nonzero(before & ~after)
                minority = min(np.count_nonzero(after), np.count_nonzero(~after))
                seen.add(("flips outnumber the minority" if up + down > minority
                          else "no flips" if up + down == 0
                          else "flips both ways" if up and down else "flips one way",
                          "positive minority" if np.count_nonzero(after) == minority else "non-positive minority"))
        assert {
            ("flips outnumber the minority", "non-positive minority"),  # tau 0.1, learning rate 1
            ("flips both ways", "non-positive minority"),
            ("no flips", "positive minority"),  # tau 0.9, learning rate 0.05
            ("flips both ways", "positive minority"),
        } <= seen

    def test_equal_counts_go_to_the_lower_feature_whatever_the_row_order(self):
        # Both binary features put 34 rows, 15 of them with a positive
        # residual, on the left, so their gains are equal as rationals. The
        # two left sets hold different rows, and their pinball gradients,
        # summed in row order, round to different floats.
        def bits(text):
            return np.array([float(c) for c in text])

        tau = 0.36875
        y = bits("1100100101100000100110110000101100101001000000010101010101011000")
        X = np.column_stack([
            bits("0101000000111110111000100101000001111001101011011111000000000111"),
            bits("0011011111100000001011110111111011001111100001000010001000000001"),
        ])
        left = X == 0
        assert left.sum(axis=0).tolist() == [34, 34]
        assert (left & (y > 0)[:, None]).sum(axis=0).tolist() == [15, 15]
        grad = pinball_subgradient(y, 0.0, tau)
        assert np.cumsum(grad[left[:, 0]])[-1] != np.cumsum(grad[left[:, 1]])[-1]
        params = BackboneParams(n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=1)
        model = _fit_boosted_column(BinnedFeatures.of(X), y, tau, params)
        assert model.base_score == 0.0  # so every residual is y itself
        assert model.trees[0].feature[0] == 0

    def test_a_point_fit_on_a_negated_copy_splits_on_the_first_feature(self):
        # x and -x split the rows alike at every cut, the children swapped,
        # so each split's best gain ties across the two; exact gradient sums
        # send every tie to feature 0. Summed in row order, 995 of these
        # 2,800 splits went to the copy, as rounding decided the ties.
        features = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=2000)
            y = 10.0 * x + rng.normal(size=2000)
            params = BackboneParams(n_trees=10, max_depth=3)
            model = _fit_boosted_column(BinnedFeatures.of(np.column_stack([x, -x])), y, None, params)
            features += [f for tree in model.trees for f in tree.feature.tolist() if f >= 0]
        assert len(features) == 2800
        assert set(features) == {0}

    def test_zero_residuals_count_as_non_positive(self):
        # The flagged rows' residuals are zero, the others' positive. Only a
        # zero's (1 - tau) gradient tells them apart; counted as positive,
        # every row would carry -tau and no split would gain.
        flag = np.repeat([0.0, 1.0], [30, 70])
        resid = np.where(flag > 0, 0.0, 5.0)
        binned = BinnedFeatures.of(flag[:, None])
        tree, _ = grow_tree(binned, resid, 0.3, 1, 1)
        assert tree.feature[0] == 0
        assert tree.value[1:].tolist() == [5.0, 0.0]


class TestExactGrid:
    """Point gradients on the grid where every sum of them is exact."""

    @settings(max_examples=200, deadline=None)
    @given(
        scale=st.sampled_from([5e-324, 1e-315, 2.0**-1022, 1e-300, 1e-150, 1e-5, 1.0, 3.7e4, 1e150, 1e300]),
        units=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300),
        positive=st.booleans(),  # so that sums of many entries come near n * max|g|
        seed=st.integers(0, 2**32 - 1),
    )
    @example(scale=5e-324, units=[1.0, -1.0, 0.5], positive=False, seed=0)  # subnormal: every float's grid
    @example(scale=1e300, units=[1.0, 2.0**-60, -0.25], positive=False, seed=1)  # below half a step: 0
    # Seven entries just below 1, each an odd multiple of 2**-51, half the grid's step: on a grid
    # one bit finer their sums would need 54 bits.
    @example(scale=1.0, units=[1.0 - i * 2.0**-51 for i in range(1, 14, 2)], positive=True, seed=2)
    def test_every_sum_is_exact_in_any_order(self, scale, units, positive, seed):
        g = np.asarray(units) * scale
        g = np.abs(g) if positive else g
        grid = _exact_grid(g)
        top, n = float(np.abs(g).max()), g.size
        if top == 0.0:
            assert grid is g
            return
        e = math.frexp(top)[1]
        moved = np.abs(grid - g)
        assert np.all(moved <= 2.0 ** (e + n.bit_length() - 54))
        assert np.all(moved <= n * top * 2.0**-52)
        rng = np.random.default_rng(seed)
        shuffled = grid[rng.permutation(n)]
        total = float(np.cumsum(grid)[-1])
        assert float(np.cumsum(shuffled)[-1]) == float(np.cumsum(shuffled[::-1])[-1]) == total
        assert float(grid.sum()) == math.fsum(grid) == total
        subset = rng.random(n) < 0.5
        assert math.fsum(grid[subset]) == total - float(grid[~subset].sum())

    @pytest.mark.parametrize("g", [[0.0, -0.0], [1e308, -3.0], [2.0**1020] * 16],
                             ids=["zeros", "near-max", "sixteen"])
    def test_zeros_and_gradients_whose_sums_can_overflow_are_kept(self, g):
        g = np.asarray(g)
        assert _exact_grid(g) is g


def regressor_bytes(model: BoostedTreesRegressor) -> list[bytes]:
    """Every number of a fitted regressor, bit for bit."""
    out = [np.float64(model.base_score).tobytes(), np.float64(model.learning_rate).tobytes()]
    for tree in model.trees:
        out += [a.tobytes() for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)]
    return out


class ColumnFailure(Exception):
    pass


def running(pid: int) -> bool:
    """Whether process pid exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="columns are fitted on forked workers on Linux only")
class TestParallelTrainer:
    """A model's horizon columns are fitted on forked worker processes."""

    @staticmethod
    def cpus(monkeypatch, n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @pytest.mark.parametrize("tau", [0.3, None], ids=["quantile", "point"])
    def test_each_column_equals_a_fit_in_this_process(self, rng, monkeypatch, pools, tau):
        self.cpus(monkeypatch, 2)
        train = iid_samples(rng, 400, horizon=3, n_features=5)
        params = BackboneParams(n_trees=5, max_depth=3, min_samples_leaf=15)
        model = fit_model(train, tau, params)
        assert pools == [2]
        assert len(model.horizon_models) == 3
        for h, fitted in enumerate(model.horizon_models):
            expected = _fit_boosted_column(BinnedFeatures.of(train.X), train.Y[:, h], tau, params)
            assert regressor_bytes(fitted) == regressor_bytes(expected), h

    @pytest.mark.parametrize("cpus, horizon, workers", [(1, 3, None), (4, 1, None), (2, 3, 2), (4, 3, 3)],
                             ids=["one-cpu", "one-column", "two-cpus", "more-cpus-than-columns"])
    def test_pool_size_is_the_smaller_of_columns_and_cpus(self, rng, monkeypatch, pools, cpus, horizon,
                                                          workers):
        self.cpus(monkeypatch, cpus)
        train = iid_samples(rng, 100, horizon=horizon)
        fit_model(train, 0.5, BackboneParams(n_trees=2, max_depth=2))
        assert pools == ([] if workers is None else [workers])  # one worker fits in this process
        assert multiprocessing.active_children() == []

    def test_a_caller_running_threads_fits_in_process(self, rng, monkeypatch, pools):
        self.cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            model = fit_model(iid_samples(rng, 100, horizon=2), 0.5, BackboneParams(n_trees=2))
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert pools == [] and model.horizon == 2

    def test_a_daemonic_caller_fits_in_process(self, rng, monkeypatch):
        # A pool worker is daemonic, and a daemonic process may not start children.
        self.cpus(monkeypatch, 2)
        train = iid_samples(rng, 100, horizon=2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            model = pool.apply_async(fit_model, (train, 0.5, BackboneParams(n_trees=2))).get(60)
        assert model.horizon == 2

    def test_workers_die_with_a_killed_caller(self, tmp_path):
        # Each worker prints its pid, then waits; the caller is killed mid-fit.
        script = tmp_path / "fit.py"
        script.write_text(textwrap.dedent("""
            import os, sys, time
            import numpy as np
            import riskcast.backbone
            from riskcast.backbone import BackboneParams, Workers, train_quantile_model
            from riskcast.data import Samples

            def fit(*args):
                # One write of under PIPE_BUF bytes, so the workers' lines never
                # interleave; print may write the pid and the newline apart.
                os.write(1, f"{os.getpid()}\\n".encode())
                time.sleep(120)

            os.sched_getaffinity = lambda pid: {0, 1}
            riskcast.backbone._fit_boosted_column = fit
            X = np.arange(20.0).reshape(10, 2)
            samples = Samples(X, np.ones((10, 2)), np.arange(10), ("a", "b"))
            with Workers(samples, samples) as workers:
                train_quantile_model(workers, 0.5, BackboneParams(n_trees=1))
        """))
        # Leaving the with block closes the caller's stdout pipe.
        with subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}) as caller:
            try:
                workers = [int(caller.stdout.readline()) for _ in range(2)]
            finally:
                caller.kill()
                caller.wait(timeout=60)
        deadline = time.monotonic() + 30
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in workers)

    @pytest.mark.parametrize("fail", ["raise", "exit"])
    def test_a_failed_worker_reaches_the_caller_and_leaves_no_process(self, rng, monkeypatch, fail):
        # Patched before the pool forks, so the workers inherit the patch.
        caller = os.getpid()

        def fit(binned, y, tau, params):
            if os.getpid() == caller:
                raise AssertionError("a column was fitted in the calling process")
            if fail == "exit":
                os._exit(1)
            raise ColumnFailure("column fit failed")

        monkeypatch.setattr(riskcast.backbone, "_fit_boosted_column", fit)
        self.cpus(monkeypatch, 2)
        train = iid_samples(rng, 100, horizon=2)
        with pytest.raises(FitFailure, match="^quantile model fit failed at tau=0.5: ") as info:
            fit_model(train, 0.5, BackboneParams(n_trees=2, max_depth=2))
        assert isinstance(info.value.__cause__, ColumnFailure if fail == "raise" else BrokenProcessPool)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
    @pytest.mark.parametrize("tau, failed", [(0.3, "quantile model fit failed at tau=0.3"),
                                             (None, "point model fit failed")], ids=["quantile", "point"])
    def test_a_failed_fit_is_one_fit_failure_naming_the_model(self, rng, monkeypatch, pools, cpus, tau, failed):
        def fit(binned, y, tau, params):
            raise ColumnFailure("column fit failed")

        monkeypatch.setattr(riskcast.backbone, "_fit_boosted_column", fit)
        self.cpus(monkeypatch, cpus)
        with pytest.raises(FitFailure, match=f"^{re.escape(failed)}: ColumnFailure: column fit failed$") as info:
            fit_model(iid_samples(rng, 100, horizon=2), tau, BackboneParams(n_trees=2))
        assert isinstance(info.value.__cause__, ColumnFailure)
        assert pools == ([] if cpus == 1 else [2])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
    def test_a_riskcast_error_in_a_fit_is_raised_as_itself(self, rng, monkeypatch, cpus):
        def fit(binned, y, tau, params):
            raise EmptyTrainingSet("no rows")

        monkeypatch.setattr(riskcast.backbone, "_fit_boosted_column", fit)
        self.cpus(monkeypatch, cpus)
        with pytest.raises(EmptyTrainingSet, match="^no rows$"):
            fit_model(iid_samples(rng, 100, horizon=2), 0.3, BackboneParams(n_trees=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
    @pytest.mark.parametrize("tau", [0.3, None], ids=["quantile", "point"])
    def test_calibration_preds_equal_predicting_the_calibration_split(self, rng, monkeypatch, pools, tau, cpus):
        # H = 3 on two workers: one fits and predicts two columns, the other one.
        self.cpus(monkeypatch, cpus)
        train, cal = iid_samples(rng, 400, horizon=3, n_features=5), iid_samples(rng, 150, horizon=3, n_features=5)
        params = BackboneParams(n_trees=5, max_depth=3, min_samples_leaf=15)
        model = fit_model(train, tau, params, cal)
        assert pools == ([] if cpus == 1 else [2])
        assert multiprocessing.active_children() == []
        assert model.calibration_preds.shape == (150, 3)
        assert model.calibration_preds.tobytes() == model.predict(cal.X, cal.layout).tobytes()

    def test_bad_calibration_features_fail_before_any_fork(self, rng, monkeypatch, pools):
        self.cpus(monkeypatch, 2)
        train, cal = iid_samples(rng, 200, horizon=2), iid_samples(rng, 60, horizon=2)
        X = cal.X.copy()
        X[7, 2] = np.nan
        with pytest.raises(NonFiniteFeatures, match="junk.lag2"):
            Workers(train, Samples(X, cal.Y, cal.origin_index, cal.layout))
        with pytest.raises(LayoutMismatch):
            Workers(train, Samples(cal.X, cal.Y, cal.origin_index, cal.layout[::-1]))
        with pytest.raises(LayoutMismatch):
            Workers(train, Samples(cal.X[:, :-1], cal.Y, cal.origin_index, cal.layout[:-1]))
        assert pools == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_training_features_fail_before_any_fork(self, rng, monkeypatch, pools, bad):
        self.cpus(monkeypatch, 2)
        train = iid_samples(rng, 200, horizon=2)
        X = train.X.copy()
        X[3, 1] = bad
        with pytest.raises(NonFiniteFeatures, match="the first in column 'junk.lag1'"):
            fit_model(Samples(X, train.Y, train.origin_index, train.layout), 0.3, BackboneParams(n_trees=2))
        assert pools == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("split", ["training", "calibration"])
    def test_non_finite_targets_fail_before_any_fork(self, rng, monkeypatch, pools, split, bad):
        # A non-finite target would make every prediction of its column NaN.
        self.cpus(monkeypatch, 2)
        splits = {"training": iid_samples(rng, 200, horizon=3), "calibration": iid_samples(rng, 60, horizon=3)}
        Y = splits[split].Y.copy()
        Y[5, 1] = Y[9, 2] = bad
        splits[split] = Samples(splits[split].X, Y, splits[split].origin_index, splits[split].layout)
        match = f"^the {split} split's Y holds 2 non-finite values, the first in column 1$"
        for tau in (0.3, None):
            with pytest.raises(NonFiniteTargets, match=match):
                fit_model(splits["training"], tau, BackboneParams(n_trees=2), splits["calibration"])
        assert pools == []

    @pytest.mark.parametrize("train_h, cal_h", [(3, 2), (2, 3), (0, 0)], ids=["narrower", "wider", "zero-width"])
    def test_targets_that_cannot_be_scored_fail_before_binning_or_any_fork(self, rng, monkeypatch, pools,
                                                                           train_h, cal_h):
        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(BinnedFeatures, "of", staticmethod(lambda X: pytest.fail("binned")))
        train, cal = iid_samples(rng, 200, horizon=train_h), iid_samples(rng, 60, horizon=cal_h)
        match = f"^the training split's Y has {train_h} columns and the calibration split's {cal_h};"
        with pytest.raises(LayoutMismatch, match=match):
            Workers(train, cal)
        assert pools == []

    def test_a_worker_set_fits_its_own_training_split_only(self, rng, monkeypatch):
        self.cpus(monkeypatch, 2)
        train, cal = iid_samples(rng, 200, horizon=2), iid_samples(rng, 60, horizon=2)
        model = fit_model(train, 0.3, BackboneParams(n_trees=3, max_depth=2), cal)
        assert model.feature_layout == train.layout
        with pytest.raises(LayoutMismatch):
            model.predict(cal.X, cal.layout[::-1])
        with pytest.raises(LayoutMismatch):
            model.predict(cal.X[:, :-1], cal.layout)
        assert multiprocessing.active_children() == []


def paper_shaped_windows(length: int = 10_000):
    """Windows at bench/paper_shape.yaml's shape: L=75, H=15, 375 columns and a small train split."""
    spec = SyntheticSpec(length=length, seed=5, base_level=230.0, handover_drop=30.0, noise=GaussianNoise(38.0))
    return make_windows(generate_synthetic(spec), 75, 15, (0.16, 0.42, 0.42))


PAPER_SHAPED_PARAMS = BackboneParams(n_trees=1, max_depth=6, learning_rate=0.5, min_samples_leaf=20)


class TestMemory:
    def test_no_float_feature_matrix_is_built(self):
        small = paper_shaped_windows(400)  # so that what a first fit imports is not counted
        model = train_quantile_model(Workers(small.train, small.calibration), 0.3, PAPER_SHAPED_PARAMS)
        model.predict(small.test.X, small.test.layout)
        tracemalloc.start()
        try:
            ds = paper_shaped_windows()
            workers = Workers(ds.train, ds.calibration)
            building = tracemalloc.get_traced_memory()[1]
            model = train_quantile_model(workers, 0.3, PAPER_SHAPED_PARAMS)  # in this process: the set is not entered
            del workers  # as a run shuts its worker set down before the first test prediction
            tracemalloc.reset_peak()
            model.predict(ds.test.X, ds.test.layout)
            predicting = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X.nbytes == 9911 * 375 * 8
        assert building < ds.X.nbytes / 4
        assert predicting < ds.X.nbytes / 4

    @pytest.mark.skipif(sys.platform != "linux", reason="the allocator is set on Linux (glibc) only")
    def test_the_split_scan_does_not_fault_its_temporaries_in_afresh(self):
        # A fresh process, so no earlier test has shaped its heap.
        script = textwrap.dedent("""
            import resource
            from riskcast.backbone import Workers, train_point_model, train_quantile_model
            from test_backbone import PAPER_SHAPED_PARAMS, paper_shaped_windows

            ds = paper_shaped_windows()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            workers = Workers(ds.train, ds.calibration)  # not entered: every column is fitted in this process
            train_quantile_model(workers, 0.2, PAPER_SHAPED_PARAMS)
            train_quantile_model(workers, 0.3, PAPER_SHAPED_PARAMS)
            train_point_model(workers, PAPER_SHAPED_PARAMS)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 150_000


@st.composite
def quantile_cases(draw):
    """Tied, rounded residuals (signed zeros too) and a level whose virtual
    index (n - 1) * tau is arbitrary, whole, or a half."""
    element = draw(st.sampled_from([
        st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
        st.floats(-1e3, 1e3).map(lambda v: round(v, 1)),
    ]))
    values = draw(st.lists(element, min_size=1, max_size=300))
    steps = 2 * (len(values) - 1)
    if steps and draw(st.booleans()):
        tau = draw(st.integers(1, steps - 1)) / steps
    else:
        tau = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return values, tau


class TestLeafQuantile:
    @settings(max_examples=300, deadline=None)
    @given(case=quantile_cases())
    @example(case=([4.0, 1.0, 3.0, 2.0, 5.0], 0.25))  # virtual index 1.0
    @example(case=([4.0, 1.0, 2.0], 0.25))  # virtual index 0.5
    # Ties of -0.0 and 0.0: which one lands at a kth position depends on the kth set.
    @example(case=([-0.0, -1.0, 1.0, -1.0, 0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0], 0.9))
    @example(case=([-0.0], 0.9))  # one value: lo == n - 1 takes the max
    def test_matches_numpy_quantile_bit_for_bit(self, case):
        values, tau = case
        r = np.asarray(values, dtype=np.float64)
        expected = float(np.quantile(r, tau))
        assert _leaf_quantile(r.copy(), tau).hex() == expected.hex()


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BackboneParams(n_trees=0)
        with pytest.raises(ValueError):
            BackboneParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            BackboneParams(max_depth=0)
        with pytest.raises(ValueError):
            BackboneParams(min_samples_leaf=float("inf"))
        with pytest.raises(ValueError):
            BackboneParams(n_trees=2.5)
        with pytest.raises(ValueError):
            BackboneParams(max_depth=1.5)

