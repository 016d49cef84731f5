from __future__ import annotations

import math
import multiprocessing
import os
import sys

import numpy as np
import pytest

from riskcast.backbone import BackboneParams, Workers, train_quantile_model
from riskcast.calibration import (
    CandidateEvaluation,
    QuantileEvaluator,
    RiskBudgetConfig,
    boundary_search,
    budget_scale_search,
    run_selection,
    select_from_grid,
    select_quantile,
)
from riskcast.errors import EmptyGrid, EmptyTrainingSet
from riskcast.metrics import PredictionBatch, mae, over_rate

from conftest import iid_samples

DEFAULT = RiskBudgetConfig(epsilon=0.35)


class FakeEvaluator:
    """Counts calls; risk and accuracy come from closed-form curves."""

    def __init__(self, r_fn, a_fn=lambda tau: 1.0 - tau):
        self.r_fn = r_fn
        self.a_fn = a_fn
        self.calls: list[float] = []

    def __call__(self, tau: float) -> CandidateEvaluation:
        self.calls.append(tau)
        return CandidateEvaluation(tau=float(tau), mae=float(self.a_fn(tau)), over_rate=float(self.r_fn(tau)))


class TestBoundarySearch:
    def test_ideal_calibration_curve(self):
        ev = FakeEvaluator(r_fn=lambda tau: tau)
        result = boundary_search(DEFAULT, ev)
        assert 0.30 <= result.tau_lo <= 0.35
        assert result.tau_hi - result.tau_lo < 0.05
        # two endpoints plus at most ceil(log2(0.25/0.05)) midpoints
        midpoints = [t for t in ev.calls if t not in (0.15, 0.40)]
        assert len(set(midpoints)) <= math.ceil(math.log2(0.25 / 0.05))

    def test_whole_interval_safe(self):
        ev = FakeEvaluator(r_fn=lambda tau: 0.1)
        result = boundary_search(DEFAULT, ev)
        assert (result.tau_lo, result.tau_hi) == (0.40, 0.40)

    def test_budget_violation_regime(self):
        ev = FakeEvaluator(r_fn=lambda tau: 0.9)
        result = boundary_search(DEFAULT, ev)
        assert (result.tau_lo, result.tau_hi) == (0.15, 0.15)

    def test_bracket_invariant_throughout(self):
        ev = FakeEvaluator(r_fn=lambda tau: 1.2 * tau)
        result = boundary_search(DEFAULT, ev)
        for tau_lo, tau_hi, r_lo in result.bisection_log:
            assert r_lo <= DEFAULT.epsilon
            assert tau_lo < tau_hi
        assert ev.r_fn(result.tau_lo) <= DEFAULT.epsilon < ev.r_fn(result.tau_hi)


class TestSelection:
    def test_ideal_curve_picks_largest_feasible(self):
        ev = FakeEvaluator(r_fn=lambda tau: tau)
        result = run_selection(DEFAULT, ev)
        assert result.feasible and not result.fallback_used
        assert ev.r_fn(result.tau_star) <= DEFAULT.epsilon
        grid_taus = [e.tau for e in result.fine_grid]
        feasible = [t for t in grid_taus if ev.r_fn(t) <= DEFAULT.epsilon]
        assert result.tau_star == max(feasible)
        assert grid_taus[0] == result.boundary[0]
        assert grid_taus[-1] == result.boundary[1]
        assert len(grid_taus) == DEFAULT.grid_size

    def test_degenerate_safe_interval(self):
        ev = FakeEvaluator(r_fn=lambda tau: 0.05)
        result = run_selection(DEFAULT, ev)
        assert result.tau_star == 0.40
        assert result.boundary == (0.40, 0.40)
        assert [e.tau for e in result.fine_grid] == [0.40]
        assert result.feasible

    def test_degenerate_violation_interval(self):
        ev = FakeEvaluator(r_fn=lambda tau: 0.9)
        result = run_selection(DEFAULT, ev)
        assert result.tau_star == 0.15
        assert result.boundary == (0.15, 0.15)
        assert result.fallback_used and not result.feasible

    def test_training_budget(self):
        ev = FakeEvaluator(r_fn=lambda tau: tau)
        result = run_selection(DEFAULT, ev)
        assert result.n_trainings <= 2 + math.ceil(math.log2(0.25 / 0.05)) + 5

    def test_determinism(self):
        ev1 = FakeEvaluator(r_fn=lambda tau: tau * 0.9)
        ev2 = FakeEvaluator(r_fn=lambda tau: tau * 0.9)
        a = run_selection(DEFAULT, ev1)
        b = run_selection(DEFAULT, ev2)
        assert a.tau_star == b.tau_star
        assert a.boundary == b.boundary
        assert [e.tau for e in a.evaluations] == [e.tau for e in b.evaluations]

    def test_an_evaluator_error_is_raised_as_itself(self):
        # The middle of the five-level fine grid, which bisection stopped short of evaluating.
        failing = run_selection(DEFAULT, FakeEvaluator(r_fn=lambda tau: tau)).fine_grid[2].tau
        error = RuntimeError("fit failed")

        def evaluate(tau):
            if tau == failing:
                raise error
            return CandidateEvaluation(tau=float(tau), mae=1.0 - tau, over_rate=float(tau))

        with pytest.raises(RuntimeError) as info:
            run_selection(DEFAULT, evaluate)
        assert info.value is error

    @pytest.mark.parametrize("delta", [1e-13, 1e-20, 1e-300])
    def test_a_delta_below_the_float_spacing_ends_the_search(self, delta):
        # Bisection stops once its ends are adjacent floats, whose midpoint is
        # one of them, or, for 1e-13, once they are closer than delta.
        # Unmemoised, a search that never ends fails after 200 evaluations
        # instead of hanging. Under run_selection every level, however close
        # to another, is evaluated as itself.
        ev = FakeEvaluator(r_fn=lambda tau: tau)

        def bounded(tau):
            if len(ev.calls) == 200:
                raise AssertionError("the search did not end after 200 evaluations")
            return ev(tau)

        config = RiskBudgetConfig(epsilon=0.3, delta=delta)
        boundary = boundary_search(config, bounded)
        if delta < np.spacing(config.epsilon):
            assert boundary.tau_lo < boundary.tau_hi == np.nextafter(boundary.tau_lo, 1.0)
        else:
            assert 0 < boundary.tau_hi - boundary.tau_lo < delta
        result = run_selection(config, FakeEvaluator(r_fn=lambda tau: tau))
        lo, hi = result.boundary
        assert lo <= config.epsilon < hi
        assert [e.tau for e in result.fine_grid] == np.linspace(lo, hi, config.grid_size).tolist()
        assert all(e.over_rate == e.tau for e in result.fine_grid)
        assert result.tau_star in [e.tau for e in result.fine_grid]
        assert result.feasible and result.tau_star <= config.epsilon

    def test_a_riskcast_error_is_raised_as_itself(self):
        def evaluate(tau):
            raise EmptyTrainingSet("training split is empty")

        with pytest.raises(EmptyTrainingSet):
            run_selection(DEFAULT, evaluate)


class TestSelectFromGrid:
    def grid(self, rows):
        return [CandidateEvaluation(tau=t, mae=a, over_rate=r) for t, a, r in rows]

    def test_feasible_min_mae(self):
        best, feasible = select_from_grid(
            self.grid([(0.2, 5.0, 0.2), (0.3, 4.0, 0.3), (0.4, 3.0, 0.5)]), 0.35
        )
        assert feasible and best.tau == 0.3

    def test_feasible_tie_takes_larger_tau(self):
        best, _ = select_from_grid(
            self.grid([(0.2, 4.0, 0.1), (0.3, 4.0, 0.2)]), 0.35
        )
        assert best.tau == 0.3

    def test_huge_penalty_minimizes_risk(self):
        best, feasible = select_from_grid(
            self.grid([(0.2, 9.0, 0.40), (0.3, 5.0, 0.45), (0.4, 1.0, 0.60)]), 0.35
        )
        assert not feasible and best.tau == 0.2

    def test_fallback_tie_takes_smaller_tau(self):
        best, _ = select_from_grid(
            self.grid([(0.2, 5.0, 0.5), (0.3, 5.0, 0.5)]), 0.35
        )
        assert best.tau == 0.2


class TestOracleEquivalence:
    """Coarse-to-fine selection vs exhaustive search on a dense grid."""

    def scenario(self, rng):
        r0 = rng.uniform(0.0, 0.45)
        r1 = rng.uniform(r0 + 0.05, 0.95)
        curve = rng.uniform(0.5, 2.0)

        def r_fn(tau):
            z = (tau - 0.15) / 0.25
            return r0 + (r1 - r0) * z**curve

        a0 = rng.uniform(5.0, 50.0)
        a1 = rng.uniform(1.0, 20.0)
        return r_fn, (lambda tau: a0 - a1 * tau), rng.uniform(0.2, 0.5)

    def test_fifty_random_scenarios(self, rng):
        dense = np.arange(0.15, 0.40 + 1e-12, 0.001)
        for _ in range(50):
            r_fn, a_fn, eps = self.scenario(rng)
            config = RiskBudgetConfig(epsilon=eps)
            ev = FakeEvaluator(r_fn=r_fn, a_fn=a_fn)
            result = run_selection(config, ev)
            assert result.n_trainings <= 10

            feasible = [t for t in dense if r_fn(t) <= eps]
            if not feasible:
                assert result.tau_star == 0.15
                assert result.fallback_used
                continue
            tau_opt = max(feasible)
            if tau_opt == dense[-1]:
                assert result.tau_star == 0.40
                continue
            spacing = (result.boundary[1] - result.boundary[0]) / (config.grid_size - 1)
            assert r_fn(result.tau_star) <= eps
            assert result.tau_star >= tau_opt - spacing - 1e-12
            assert a_fn(result.tau_star) <= a_fn(tau_opt - spacing) + 1e-12


class TestEvaluatorCache:
    def test_cache_hits_do_not_retrain(self, rng):
        train = iid_samples(rng, n=300)
        cal = iid_samples(rng, n=200)
        params = BackboneParams(n_trees=5, max_depth=2)
        with Workers(train, cal) as workers:
            ev = QuantileEvaluator(workers, params)
            first = ev(0.25)
            assert ev.n_trainings == 1
            second = ev(0.25)
        assert ev.n_trainings == 1
        assert second is first

    def test_levels_one_float_apart_are_fitted_apart(self, rng):
        train, cal = iid_samples(rng, n=300), iid_samples(rng, n=200)
        params = BackboneParams(n_trees=5, max_depth=2)
        near = float(np.nextafter(0.25, 1.0))
        with Workers(train, cal) as workers:
            ev = QuantileEvaluator(workers, params)
            first, second = ev(0.25), ev(near)
        assert ev.n_trainings == 2
        assert (first.tau, second.tau) == (0.25, near)
        assert (first.model.tau, second.model.tau) == (0.25, near)

    def test_the_cache_keeps_no_calibration_predictions(self, rng):
        train, cal = iid_samples(rng, n=300, horizon=2), iid_samples(rng, n=200, horizon=2)
        params = BackboneParams(n_trees=5, max_depth=2)
        with Workers(train, cal) as workers:
            evaluator = QuantileEvaluator(workers, params)
            result = run_selection(DEFAULT, evaluator)
            fresh = train_quantile_model(workers, result.tau_star, params)
        assert len(evaluator._cache) == result.n_trainings >= 2
        assert all(ev.model.calibration_preds is None for ev in evaluator._cache.values())
        assert fresh.calibration_preds.tobytes() == result.model.predict(cal.X, cal.layout).tobytes()
        assert fresh.predict(train.X, train.layout).tobytes() == result.model.predict(train.X, train.layout).tobytes()

    def test_evaluate_candidate_scores_calibration_split(self, rng):
        train = iid_samples(rng, n=400)
        cal = iid_samples(rng, n=300)
        params = BackboneParams(n_trees=10, max_depth=2, min_samples_leaf=50)
        with Workers(train, cal) as workers:
            ev = QuantileEvaluator(workers, params)(0.25)
        preds = ev.model.predict(cal.X, cal.layout)
        batch = PredictionBatch(preds, cal.Y)
        assert ev.mae == mae(batch)
        assert ev.over_rate == over_rate(batch)
        # feature-independent targets: risk should sit near tau
        assert abs(ev.over_rate - 0.25) <= 0.08

    def test_select_quantile_end_to_end(self, rng):
        train = iid_samples(rng, n=3000)
        cal = iid_samples(rng, n=2000)
        params = BackboneParams(n_trees=20, max_depth=2, min_samples_leaf=200)
        result = select_quantile(RiskBudgetConfig(epsilon=0.35), train, cal, params)
        assert result.feasible
        selected = next(e for e in result.fine_grid if e.tau == result.tau_star)
        assert selected.over_rate <= 0.35
        assert result.model is not None
        assert result.n_trainings <= 10

    @pytest.mark.skipif(sys.platform != "linux", reason="columns are fitted on forked workers on Linux only")
    def test_select_quantile_forks_one_pool(self, rng, monkeypatch, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        train, cal = iid_samples(rng, n=300, horizon=2), iid_samples(rng, n=200, horizon=2)
        result = select_quantile(RiskBudgetConfig(epsilon=0.35), train, cal, BackboneParams(n_trees=3, max_depth=2))
        assert result.n_trainings >= 2
        assert pools == [2]
        assert multiprocessing.active_children() == []


def brute_force_scale(batch, epsilon, grid):
    rows = []
    for c in grid:
        scaled = PredictionBatch(batch.preds * c, batch.truths)
        rows.append((float(c), mae(scaled), over_rate(scaled)))
    feasible = [r for r in rows if r[2] <= epsilon]
    if feasible:
        best_mae = min(r[1] for r in feasible)
        return min(r[0] for r in feasible if r[1] == best_mae)
    best_rate = min(r[2] for r in rows)
    return min(r[0] for r in rows if r[2] == best_rate)


class TestBudgetScale:
    def test_perfect_predictions_keep_unit_scale(self, rng):
        truths = rng.uniform(10, 100, size=(50, 3))
        batch = PredictionBatch(truths.copy(), truths)
        result = budget_scale_search(batch, 0.35)
        assert result.c_star == 1.0
        assert result.feasible

    def test_double_predictions_need_halving(self, rng):
        truths = rng.uniform(10, 100, size=(50, 3))
        batch = PredictionBatch(2.0 * truths, truths)
        grid = np.linspace(0.40, 1.00, 61)
        assert budget_scale_search(batch, 0.35, grid).c_star <= 0.5

    def test_matches_brute_force(self, rng):
        grid = np.linspace(0.5, 1.0, 51)
        for _ in range(30):
            truths = rng.uniform(5, 120, size=(25, 4))
            preds = truths * rng.uniform(0.8, 1.6) + rng.normal(0, 10, size=truths.shape)
            preds = np.maximum(preds, 0)
            batch = PredictionBatch(preds, truths)
            eps = float(rng.uniform(0.05, 0.6))
            assert budget_scale_search(batch, eps, grid).c_star == brute_force_scale(batch, eps, grid)

    @pytest.mark.parametrize("preds, feasible", [(0.0, True), (100.0, False)], ids=["feasible", "infeasible"])
    def test_ties_go_to_the_first_factor(self, preds, feasible):
        # Zero predictions score the same MAE at every factor, and predictions
        # far above the truths the same over_rate.
        result = budget_scale_search(PredictionBatch(np.full((4, 2), preds), np.full((4, 2), 10.0)), 0.35)
        assert (result.c_star, result.feasible) == (0.5, feasible)

    @pytest.mark.parametrize("preds, grid, feasible", [(0.0, [1.0, 0.5], True), (5.0, [0.6, 0.5], False)],
                             ids=["feasible", "infeasible"])
    def test_ties_go_to_the_smaller_factor_in_a_descending_grid(self, preds, grid, feasible):
        # Zero predictions score the same MAE at every factor; 3.0 and 2.5
        # both lie above the truths of 1.0, so every factor over-predicts.
        result = budget_scale_search(PredictionBatch(np.full((4, 2), preds), np.ones((4, 2))), 0.35, grid)
        assert (result.c_star, result.feasible) == (0.5, feasible)
        assert [row.factor for row in result.grid] == sorted(grid)

    @pytest.mark.parametrize("grid", [[0.5, 0.0, 1.0], [-0.5, 1.0]], ids=["zero", "negative"])
    def test_non_positive_factor_is_rejected(self, grid):
        truths = np.full((4, 2), 10.0)
        with pytest.raises(ValueError, match="scale factors must be positive"):
            budget_scale_search(PredictionBatch(truths, truths), 0.3, grid)


@pytest.mark.parametrize(
    "search, message",
    [(lambda batch: select_from_grid([], 0.35), "no candidates to select from"),
     (lambda batch: budget_scale_search(batch, 0.35, []), "scale-factor grid is empty")],
    ids=["candidate levels", "scale factors"],
)
def test_an_empty_grid_raises_empty_grid(search, message, rng):
    truths = rng.uniform(10, 100, size=(5, 2))
    with pytest.raises(EmptyGrid, match=message):
        search(PredictionBatch(truths, truths))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiskBudgetConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            RiskBudgetConfig(epsilon=0.35, tau_min=0.4, tau_max=0.2)
        with pytest.raises(ValueError):
            RiskBudgetConfig(epsilon=0.35, delta=0.0)
        with pytest.raises(ValueError):
            RiskBudgetConfig(epsilon=0.35, grid_size=1)
        with pytest.raises(ValueError):
            RiskBudgetConfig(epsilon=0.35, delta=float("nan"))
        with pytest.raises(ValueError):
            RiskBudgetConfig(epsilon=0.35, delta=float("inf"))
        with pytest.raises(ValueError):
            RiskBudgetConfig(epsilon=0.35, grid_size=2.5)

    def test_with_epsilon(self):
        cfg = RiskBudgetConfig(epsilon=0.35).with_epsilon(0.4)
        assert cfg.epsilon == 0.4 and cfg.tau_max == 0.40
