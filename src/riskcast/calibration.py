"""Selection of the operating quantile under an overestimation budget.

The level is chosen on a calibration split: bisection brackets the point
where the calibration over_rate crosses the budget, a small evenly spaced
grid refines the bracket, and the most accurate feasible candidate wins.
When nothing on the grid is feasible, the least risky candidate is picked
and the selection is marked infeasible instead of silently violating the
budget.

The scale baseline calibrates a single multiplicative factor for a point
predictor under the same constraint, by exhaustive search over a factor grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .backbone import BackboneParams, QuantileModel, Workers, train_quantile_model
from .data import Samples
from .errors import EmptyGrid, InvalidGrid
from .metrics import PredictionBatch, mae, over_rate

DEFAULT_SCALE_GRID = np.linspace(0.50, 1.00, 51)


@dataclass(frozen=True)
class RiskBudgetConfig:
    """Budget and search-space parameters for quantile selection.

    epsilon is the maximum acceptable calibration over_rate; the search runs
    over [tau_min, tau_max] with bisection tolerance delta and a fine grid of
    grid_size candidates.
    """

    epsilon: float = 0.35
    tau_min: float = 0.15
    tau_max: float = 0.40
    delta: float = 0.05
    grid_size: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.tau_min < self.tau_max < 1.0:
            raise ValueError("need 0 < tau_min < tau_max < 1")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if isinstance(self.grid_size, bool) or not isinstance(self.grid_size, numbers.Integral):
            raise ValueError(f"grid_size must be an integer, got {self.grid_size!r}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")

    def with_epsilon(self, epsilon: float) -> "RiskBudgetConfig":
        return replace(self, epsilon=epsilon)


@dataclass
class CandidateEvaluation:
    """Calibration accuracy and risk of the predictor at one quantile level."""

    tau: float
    mae: float
    over_rate: float
    model: QuantileModel | None = None

    def to_dict(self) -> dict:
        return {"tau": self.tau, "mae": self.mae, "over_rate": self.over_rate}


Evaluator = Callable[[float], CandidateEvaluation]


class QuantileEvaluator:
    """Trains and scores quantile models on demand, caching by level.

    Every fit runs on `workers`, a Workers set of a training and a
    calibration split, and is scored on the calibration predictions its
    workers make as they fit it. The cache keeps each scored model without
    those predictions (its calibration_preds is None), since nothing reads
    them after scoring. Repeated requests for the same tau (same data, seed,
    and params by construction) train at most once; n_trainings counts
    actual fits, so cache hits are visible to training-budget assertions.
    """

    def __init__(self, workers: Workers, params: BackboneParams):
        self.workers = workers
        self.params = params
        self.n_trainings = 0
        self._cache: dict[float, CandidateEvaluation] = {}

    def __call__(self, tau: float) -> CandidateEvaluation:
        key = float(tau)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        model = train_quantile_model(self.workers, tau, self.params)
        self.n_trainings += 1
        batch = PredictionBatch(model.calibration_preds, self.workers.cal.Y)
        ev = CandidateEvaluation(tau=float(tau), mae=mae(batch), over_rate=over_rate(batch),
                                 model=replace(model, calibration_preds=None))
        self._cache[key] = ev
        return ev


def lin_space(a: float, b: float, m: int) -> np.ndarray:
    """m evenly spaced levels including both endpoints."""
    if a > b:
        raise InvalidGrid(f"grid start {a} exceeds end {b}")
    if m < 1 or (m == 1 and a != b):
        raise InvalidGrid("m must be >= 2, or 1 only for a degenerate interval")
    return np.linspace(float(a), float(b), m)


@dataclass
class BoundaryResult:
    """Outcome of the coarse search: a bracket and the bisection path."""

    tau_lo: float
    tau_hi: float
    bisection_log: list[tuple[float, float, float]] = field(default_factory=list)


def boundary_search(config: RiskBudgetConfig, evaluator: Evaluator) -> BoundaryResult:
    """Bracket the level where calibration risk crosses the budget.

    If the whole interval is safe the bracket collapses to tau_max; if even
    tau_min violates the budget it collapses to tau_min. Otherwise bisection
    keeps risk(tau_lo) <= epsilon < risk(tau_hi) and stops once the bracket
    is narrower than delta, or has no float inside it. Each bisection step
    evaluates one new level; run_selection memoises the evaluator so the
    fine grid reuses them.
    """
    lo_eval = evaluator(config.tau_min)
    hi_eval = evaluator(config.tau_max)
    if hi_eval.over_rate <= config.epsilon:
        return BoundaryResult(config.tau_max, config.tau_max)
    if lo_eval.over_rate > config.epsilon:
        return BoundaryResult(config.tau_min, config.tau_min)

    tau_lo, tau_hi = config.tau_min, config.tau_max
    r_lo = lo_eval.over_rate
    bisection_log = [(tau_lo, tau_hi, r_lo)]
    while tau_hi - tau_lo >= config.delta:
        tau_mid = 0.5 * (tau_lo + tau_hi)
        if not tau_lo < tau_mid < tau_hi:  # adjacent floats: the bracket can narrow no further
            break
        mid_eval = evaluator(tau_mid)
        if mid_eval.over_rate <= config.epsilon:
            tau_lo, r_lo = tau_mid, mid_eval.over_rate
        else:
            tau_hi = tau_mid
        bisection_log.append((tau_lo, tau_hi, r_lo))
    return BoundaryResult(tau_lo, tau_hi, bisection_log)


@dataclass
class SelectionResult:
    """Selected level plus everything needed to audit the search."""

    tau_star: float
    boundary: tuple[float, float]
    fine_grid: list[CandidateEvaluation]
    feasible: bool
    fallback_used: bool
    n_trainings: int
    evaluations: list[CandidateEvaluation] = field(default_factory=list)
    model: QuantileModel | None = None

    def to_dict(self) -> dict:
        return {
            "tau_star": self.tau_star,
            "boundary": list(self.boundary),
            "feasible": self.feasible,
            "fallback_used": self.fallback_used,
            "n_trainings": self.n_trainings,
            "fine_grid": [e.to_dict() for e in self.fine_grid],
            "evaluations": [e.to_dict() for e in self.evaluations],
        }


def select_from_grid(
    candidates: list[CandidateEvaluation], epsilon: float
) -> tuple[CandidateEvaluation, bool]:
    """Constrained pick over evaluated candidates.

    Feasible candidates compete on calibration MAE (ties go to the larger,
    less conservative level). When every candidate violates the budget, the
    least over_rate wins, then the least MAE, then the smaller, safer level;
    returns (choice, feasible). Under run_selection that fallback only ever
    sees the one level tau_min: any wider grid starts at a feasible level.
    """
    if not candidates:
        raise InvalidGrid("no candidates to select from")
    feasible = [e for e in candidates if e.over_rate <= epsilon]
    if feasible:
        return min(feasible, key=lambda e: (e.mae, -e.tau)), True
    return min(candidates, key=lambda e: (e.over_rate, e.mae, e.tau)), False


def run_selection(config: RiskBudgetConfig, evaluator: Evaluator) -> SelectionResult:
    """Coarse-to-fine selection against an arbitrary candidate evaluator.

    Each level is evaluated once, by memo_ev. An evaluator's error is raised
    as it is; a QuantileEvaluator's failed fit is a FitFailure naming the level.
    """
    memo: dict[float, CandidateEvaluation] = {}

    def memo_ev(tau: float) -> CandidateEvaluation:
        key = float(tau)
        if key not in memo:
            memo[key] = evaluator(tau)
        return memo[key]

    trainings_before = getattr(evaluator, "n_trainings", None)
    boundary = boundary_search(config, memo_ev)
    lo, hi = boundary.tau_lo, boundary.tau_hi
    fine = [memo_ev(t) for t in lin_space(lo, hi, 1 if lo == hi else config.grid_size)]
    best, is_feasible = select_from_grid(fine, config.epsilon)
    return SelectionResult(
        tau_star=best.tau,
        boundary=(lo, hi),
        fine_grid=fine,
        feasible=is_feasible,
        fallback_used=not is_feasible,
        n_trainings=len(memo) if trainings_before is None else evaluator.n_trainings - trainings_before,
        evaluations=list(memo.values()),
        model=best.model,
    )


def select_quantile(
    config: RiskBudgetConfig, train: Samples, cal: Samples, params: BackboneParams
) -> SelectionResult:
    """Train/evaluate candidates on real splits and select the operating level,
    every fit on one worker set."""
    with Workers(train, cal) as workers:
        return run_selection(config, QuantileEvaluator(workers, params))


# ---------------------------------------------------------------------------
# Budget-scale baseline
# ---------------------------------------------------------------------------


@dataclass
class ScaleEvaluation:
    factor: float
    mae: float
    over_rate: float


@dataclass
class BudgetScaleResult:
    c_star: float
    feasible: bool
    grid: list[ScaleEvaluation]


def budget_scale_search(
    cal_batch: PredictionBatch, epsilon: float, c_grid=None
) -> BudgetScaleResult:
    """Exhaustively score every factor; feasible ones compete on MAE.

    Among feasible factors the smallest-MAE one wins; with no feasible factor
    the minimal-over_rate one wins. Ties go to the smaller factor in both
    branches (grid order is ascending).
    """
    if c_grid is None:
        c_grid = DEFAULT_SCALE_GRID
    factors = np.asarray(list(c_grid), dtype=np.float64)
    if factors.size == 0:
        raise EmptyGrid("scale-factor grid is empty")
    if np.any(factors <= 0):
        raise ValueError("scale factors must be positive")

    rows = []
    for c in factors:
        scaled = cal_batch.scaled(float(c))
        rows.append(ScaleEvaluation(float(c), mae(scaled), over_rate(scaled)))

    feasible = [row for row in rows if row.over_rate <= epsilon]
    if feasible:
        return BudgetScaleResult(min(feasible, key=lambda row: row.mae).factor, True, rows)
    return BudgetScaleResult(min(rows, key=lambda row: row.over_rate).factor, False, rows)
