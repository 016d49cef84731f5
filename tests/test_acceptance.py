"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and must not be loosened to force a pass.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import riskcast as rc
from riskcast.calibration import (
    CandidateEvaluation,
    QuantileEvaluator,
    RiskBudgetConfig,
    boundary_search,
    run_selection,
    budget_scale_search,
)
from riskcast.cli import load_config, run_experiment
from riskcast.metrics import PredictionBatch

from test_metrics import oracle_metrics

import yaml


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} {title}: FAIL")
        raise
    print(f"\n[acceptance] criterion {num:02d} {title}: PASS")


def test_c01_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence (1000 batches, 1e-9)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 501))
            h = int(rng.integers(1, 16))
            truths = rng.uniform(0, 300, size=(n, h))
            preds = np.maximum(truths + rng.normal(0, 40, size=(n, h)), 0.0)
            batch = PredictionBatch(preds, truths)
            expected = oracle_metrics(batch)
            assert abs(rc.mae(batch) - expected["mae"]) < 1e-9
            assert abs(rc.rmse(batch) - expected["rmse"]) < 1e-9
            assert abs(rc.over_rate(batch) - expected["over_rate"]) < 1e-9
            assert abs(rc.mpe(batch) - expected["mpe"]) < 1e-9
            assert abs(rc.p95_pos_err(batch) - expected["p95_pos_err"]) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_c02_pinball_correctness():
    with criterion(2, "pinball loss unit cases, convexity, subgradient"):
        assert rc.pinball_loss(10.0, 8.0, 0.5) == 1.0
        assert rc.pinball_loss(10.0, 12.0, 0.25) == 1.5
        assert rc.pinball_loss(7.0, 7.0, 0.3) == 0.0

        rng = np.random.default_rng(202)
        n = 10_000
        y = rng.uniform(-50, 50, size=n)
        y_hat = rng.uniform(-50, 50, size=n)
        tau = rng.uniform(0.02, 0.98, size=n)
        step = 1e-6
        away = np.abs(y - y_hat) > 10 * step

        losses = np.array([rc.pinball_loss(a, b, t) for a, b, t in zip(y, y_hat, tau)])
        up = np.array([rc.pinball_loss(a, b + step, t) for a, b, t in zip(y, y_hat, tau)])
        down = np.array([rc.pinball_loss(a, b - step, t) for a, b, t in zip(y, y_hat, tau)])
        fd = (up - down) / (2 * step)
        grads = np.array([rc.pinball_subgradient(a, b, t) for a, b, t in zip(y, y_hat, tau)])
        rel = np.abs(fd[away] - grads[away]) / np.maximum(np.abs(grads[away]), 1e-12)
        assert rel.max() < 1e-6

        # convexity along the prediction axis
        lam = rng.uniform(size=n)
        other = rng.uniform(-50, 50, size=n)
        mid = lam * y_hat + (1 - lam) * other
        loss_mid = np.array([rc.pinball_loss(a, b, t) for a, b, t in zip(y, mid, tau)])
        loss_other = np.array([rc.pinball_loss(a, b, t) for a, b, t in zip(y, other, tau)])
        assert np.all(loss_mid <= lam * losses + (1 - lam) * loss_other + 1e-10)


def _stationary_dataset(length, seed, noise, history=8, horizon=2, ratios=(0.6, 0.2, 0.2)):
    spec = rc.SyntheticSpec(
        length=length, seed=seed, base_level=220.0, handover_drop=35.0, noise=noise
    )
    trace = rc.generate_synthetic(spec)
    return rc.make_windows(trace, history, horizon, ratios)


def test_c03_quantile_coverage():
    with criterion(3, "held-out coverage within tau +/- 0.05"):
        ds = _stationary_dataset(60_000, seed=11, noise=rc.UniformNoise(40.0))
        params = rc.BackboneParams(n_trees=60, max_depth=3, min_samples_leaf=100)
        with rc.Workers(ds.train, ds.calibration) as workers:
            for tau in (0.15, 0.25, 0.40):
                start = time.perf_counter()
                model = rc.train_quantile_model(workers, tau, params)
                preds = model.predict(ds.test.X, ds.test.layout)
                rate = rc.over_rate(PredictionBatch(preds, ds.test.Y))
                elapsed = time.perf_counter() - start
                assert abs(rate - tau) <= 0.05, f"tau={tau}: held-out over_rate {rate:.4f}"
                assert elapsed < 120.0, f"tau={tau} took {elapsed:.0f}s"


def test_c04_point_predictor_unsafety():
    with criterion(4, "point backbone violates the budget; selected quantile does not"):
        ds = _stationary_dataset(20_000, seed=21, noise=rc.UniformNoise(40.0))
        params = rc.BackboneParams(n_trees=40, max_depth=3, min_samples_leaf=60)
        epsilon = 0.35

        with rc.Workers(ds.train, ds.calibration) as workers:
            point = rc.train_point_model(workers, params)
            evaluator = QuantileEvaluator(workers, params)
            sel = run_selection(RiskBudgetConfig(epsilon=epsilon), evaluator)
        point_rate = rc.over_rate(
            PredictionBatch(point.predict(ds.test.X, ds.test.layout), ds.test.Y)
        )
        assert 0.45 <= point_rate <= 0.55
        assert point_rate > epsilon

        safe_rate = rc.over_rate(
            PredictionBatch(sel.model.predict(ds.test.X, ds.test.layout), ds.test.Y)
        )
        assert safe_rate <= epsilon + 0.05


class _CurveEvaluator:
    def __init__(self, r_fn, a_fn):
        self.r_fn = r_fn
        self.a_fn = a_fn
        self.n_trainings = 0
        self._cache = {}

    def __call__(self, tau):
        key = round(float(tau), 12)
        if key not in self._cache:
            self.n_trainings += 1
            self._cache[key] = CandidateEvaluation(
                tau=float(tau), mae=float(self.a_fn(tau)), over_rate=float(self.r_fn(tau))
            )
        return self._cache[key]


def _random_monotone_scenario(rng):
    r0 = rng.uniform(0.0, 0.45)
    r1 = rng.uniform(r0 + 0.05, 0.95)
    curve = rng.uniform(0.5, 2.0)
    a0 = rng.uniform(5.0, 50.0)
    a1 = rng.uniform(1.0, 20.0)

    def r_fn(tau):
        z = (tau - 0.15) / 0.25
        return r0 + (r1 - r0) * z**curve

    def a_fn(tau):
        return a0 - a1 * tau

    return r_fn, a_fn


def test_c05_selection_oracle_equivalence():
    with criterion(5, "selection matches exhaustive optimum within one grid step"):
        rng = np.random.default_rng(303)
        dense = np.arange(0.15, 0.40 + 1e-12, 0.001)
        budget_cap = 2 + math.ceil(math.log2(0.25 / 0.05)) + 5
        assert budget_cap == 10
        for _ in range(50):
            r_fn, a_fn = _random_monotone_scenario(rng)
            eps = float(rng.uniform(0.2, 0.5))
            config = RiskBudgetConfig(epsilon=eps)
            evaluator = _CurveEvaluator(r_fn, a_fn)
            result = run_selection(config, evaluator)
            assert result.n_trainings <= budget_cap
            assert evaluator.n_trainings <= budget_cap

            feasible = [t for t in dense if r_fn(t) <= eps]
            if not feasible:
                assert result.tau_star == 0.15 and result.fallback_used
                continue
            tau_opt = max(feasible)
            if tau_opt == dense[-1]:
                assert result.tau_star == 0.40 and result.feasible
                continue
            spacing = (result.boundary[1] - result.boundary[0]) / (config.grid_size - 1)
            assert r_fn(result.tau_star) <= eps
            assert result.tau_star >= tau_opt - spacing - 1e-12
            assert a_fn(result.tau_star) <= a_fn(tau_opt - spacing) + 1e-12


def test_c06_degenerate_branches():
    with criterion(6, "degenerate boundary branches behave exactly"):
        config = RiskBudgetConfig(epsilon=0.35)

        low = _CurveEvaluator(lambda tau: 0.10, lambda tau: 1.0 - tau)
        boundary = boundary_search(config, low)
        assert (boundary.tau_lo, boundary.tau_hi) == (0.40, 0.40)
        result = run_selection(config, low)
        assert result.tau_star == 0.40 and result.feasible and not result.fallback_used

        high = _CurveEvaluator(lambda tau: 0.90, lambda tau: 1.0 - tau)
        boundary = boundary_search(config, high)
        assert (boundary.tau_lo, boundary.tau_hi) == (0.15, 0.15)
        result = run_selection(config, high)
        assert result.tau_star == 0.15
        assert result.fallback_used and not result.feasible
        assert [e.tau for e in result.fine_grid] == [0.15]
        # with no feasible level on the grid, the fallback picks the least over_rate
        assert result.fine_grid[0].over_rate == min(e.over_rate for e in result.fine_grid)


def test_c07_budget_scale_oracle():
    with criterion(7, "budget-scale calibration matches brute force exactly"):
        rng = np.random.default_rng(404)
        grid = np.linspace(0.5, 1.0, 51)
        for _ in range(100):
            n = int(rng.integers(5, 80))
            h = int(rng.integers(1, 8))
            truths = rng.uniform(5, 150, size=(n, h))
            preds = np.maximum(
                truths * rng.uniform(0.7, 1.8) + rng.normal(0, 15, size=(n, h)), 0.0
            )
            batch = PredictionBatch(preds, truths)
            eps = float(rng.uniform(0.05, 0.6))

            rows = []
            for c in grid:
                scaled = PredictionBatch(preds * c, truths)
                rows.append((float(c), rc.mae(scaled), rc.over_rate(scaled)))
            feasible = [r for r in rows if r[2] <= eps]
            if feasible:
                best_mae = min(r[1] for r in feasible)
                expected = min(r[0] for r in feasible if r[1] == best_mae)
            else:
                best_rate = min(r[2] for r in rows)
                expected = min(r[0] for r in rows if r[2] == best_rate)
            assert budget_scale_search(batch, eps, grid).c_star == expected


def test_c08_safety_dominance_on_heteroscedastic_data():
    with criterion(8, "lower severity than budget-scale at matched risk (>= 8/10 seeds)"):
        wins = 0
        for seed in range(10):
            noise = rc.CyclicScaleNoise(rc.GaussianNoise(38.0), period=3600.0, depth=0.7)
            spec = rc.SyntheticSpec(
                length=16_000, seed=1000 + seed, base_level=230.0,
                handover_drop=30.0, noise=noise,
            )
            trace = rc.generate_synthetic(spec)
            ds = rc.make_windows(trace, 8, 2, (0.5, 0.25, 0.25))
            params = rc.BackboneParams(n_trees=40, max_depth=3, min_samples_leaf=60)

            with rc.Workers(ds.train, ds.calibration) as workers:
                evaluator = QuantileEvaluator(workers, params)
                sel = run_selection(RiskBudgetConfig(epsilon=0.35), evaluator)
                point = rc.train_point_model(workers, params)
            achieved_cal_rate = next(
                e.over_rate for e in sel.fine_grid if e.tau == sel.tau_star
            )
            cal_batch = PredictionBatch(point.calibration_preds, ds.calibration.Y)
            # match the scale baseline to the same achieved calibration risk
            scale = budget_scale_search(cal_batch, achieved_cal_rate, np.linspace(0.5, 1.0, 501))

            test = ds.test
            point_preds = point.predict(test.X, test.layout)
            quant = PredictionBatch(sel.model.predict(test.X, test.layout), test.Y)
            scaled = PredictionBatch(point_preds * scale.c_star, test.Y)

            matched = abs(rc.over_rate(quant) - rc.over_rate(scaled)) <= 0.02
            dominated = (
                rc.mpe(quant) <= rc.mpe(scaled)
                and rc.p95_pos_err(quant) <= rc.p95_pos_err(scaled)
            )
            wins += matched and dominated
        assert wins >= 8, f"severity dominance in {wins}/10 seeded runs"


def test_c09_admission_invariants():
    with criterion(9, "admission identities and monotone safety over 1e5 slots"):
        out = rc.admit(57.0, 33.0, 10.0)
        assert (out.n_admit, out.n_oracle, out.n_served, out.n_drop) == (5, 3, 3, 2)

        rng = np.random.default_rng(505)
        n = 100_000
        truths = rng.uniform(0, 300, size=n)
        preds = np.maximum(truths + rng.normal(0, 40, size=n), 0.0)
        b = 10.0
        n_admit = np.floor(preds / b)
        n_oracle = np.floor(truths / b)
        n_drop = np.maximum(n_admit - n_oracle, 0)
        n_served = np.minimum(n_admit, n_oracle)
        assert np.all(n_served + n_drop == n_admit)
        assert np.all(n_drop[preds <= truths] == 0)

        shrink = np.maximum(preds - rng.uniform(0, 25, size=n), 0.0)
        drop_small = np.maximum(np.floor(shrink / b) - n_oracle, 0)
        assert np.all(drop_small <= n_drop)

        report = rc.simulate(PredictionBatch(preds.reshape(-1, 1), truths.reshape(-1, 1)), b)
        smaller = rc.simulate(PredictionBatch(shrink.reshape(-1, 1), truths.reshape(-1, 1)), b)
        assert smaller.mean_dropped <= report.mean_dropped
        assert smaller.violation_rate <= report.violation_rate


def test_c10_frontier_monotonicity():
    with criterion(10, "frontier is monotone in the budget on monotone evaluators"):
        rng = np.random.default_rng(606)
        epsilons = (0.30, 0.35, 0.40, 0.45, 0.50)
        for _ in range(20):
            r_fn, a_fn = _random_monotone_scenario(rng)
            evaluator = _CurveEvaluator(r_fn, a_fn)  # shared across budgets
            taus, risks, accs = [], [], []
            for eps in epsilons:
                result = run_selection(RiskBudgetConfig(epsilon=eps), evaluator)
                taus.append(result.tau_star)
                risks.append(r_fn(result.tau_star))
                accs.append(a_fn(result.tau_star))
            assert all(a <= b + 1e-12 for a, b in zip(taus, taus[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(risks, risks[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(accs, accs[1:]))


def test_c11_end_to_end_determinism(tmp_path):
    with criterion(11, "repeated runs produce byte-identical metric tables"):
        raw = {
            "dataset": {
                "kind": "synthetic",
                "length": 2600,
                "base_level": 160.0,
                "handover_drop": 30.0,
                "noise": {"kind": "uniform", "half_width": 35.0},
            },
            "L": 6,
            "H": 2,
            "split_ratios": [0.6, 0.2, 0.2],
            "risk": {"epsilon": 0.35},
            "backbone": {"n_trees": 20, "max_depth": 3, "min_samples_leaf": 40},
            "seed": 77,
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(raw))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(load_config(str(path), output_dir=str(out_a)))
        run_experiment(load_config(str(path), output_dir=str(out_b)))
        for name in ("metrics_long.csv", "metrics_long.json", "reports.json", "selection.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
