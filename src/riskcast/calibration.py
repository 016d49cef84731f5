"""Selection of the operating quantile under an overestimation budget.

The level is chosen on a calibration split: bisection brackets the point
where the calibration over_rate crosses the budget, a small evenly spaced
grid refines the bracket, and the most accurate feasible candidate wins.
When nothing on the grid is feasible, a penalized objective picks the
least-bad candidate instead of silently violating the budget.

The scale baseline calibrates a single multiplicative factor for a point
predictor under the same constraint, by exhaustive search over a factor grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .backbone import BackboneParams, QuantileModel, Workers, train_quantile_model
from .data import Samples
from .errors import EmptyGrid, EvaluatorFailure, InvalidGrid, RiskcastError
from .metrics import PredictionBatch, mae, over_rate

DEFAULT_SCALE_GRID = np.linspace(0.50, 1.00, 51)


@dataclass(frozen=True)
class RiskBudgetConfig:
    """Budget and search-space parameters for quantile selection.

    epsilon is the maximum acceptable calibration over_rate; the search runs
    over [tau_min, tau_max] with bisection tolerance delta and a fine grid of
    grid_size candidates. penalty weighs budget violations in the fallback
    objective; None defers to resolve_penalty, the one default, which is large
    enough that any violation dominates accuracy differences.
    """

    epsilon: float
    tau_min: float = 0.15
    tau_max: float = 0.40
    delta: float = 0.05
    grid_size: int = 5
    penalty: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.tau_min < self.tau_max < 1.0:
            raise ValueError("need 0 < tau_min < tau_max < 1")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.penalty is not None and self.penalty < 0:
            raise ValueError("penalty must be non-negative")

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

    Repeated requests for the same tau (same data, seed, and params by
    construction) train at most once; n_trainings counts actual fits, so
    cache hits are visible to training-budget assertions. Given `workers`
    (a Workers set of train and cal), every fit runs on them, and they
    predict it on cal as they fit it.
    """

    def __init__(self, train: Samples, cal: Samples, params: BackboneParams, workers: Workers | None = None):
        self.train = train
        self.cal = cal
        self.params = params
        self.workers = workers
        self.n_trainings = 0
        self._cache: dict[float, CandidateEvaluation] = {}

    def __call__(self, tau: float) -> CandidateEvaluation:
        key = round(float(tau), 12)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        model = train_quantile_model(self.train, tau, self.params, workers=self.workers)
        self.n_trainings += 1
        preds = model.predict(self.cal.X, self.cal.layout)
        batch = PredictionBatch(preds, self.cal.Y)
        ev = CandidateEvaluation(tau=float(tau), mae=mae(batch), over_rate=over_rate(batch), model=model)
        self._cache[key] = ev
        return ev


def lin_space(a: float, b: float, m: int) -> np.ndarray:
    """m evenly spaced levels including both endpoints."""
    if a > b:
        raise InvalidGrid(f"grid start {a} exceeds end {b}")
    if m < 1 or (m == 1 and a != b):
        raise InvalidGrid("m must be >= 2, or 1 only for a degenerate interval")
    if a == b:
        return np.full(m, float(a))
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
    is narrower than delta. Each bisection step evaluates one new level;
    run_selection memoises the evaluator so the fine grid reuses them.
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
    candidates: list[CandidateEvaluation], epsilon: float, penalty: float | None
) -> tuple[CandidateEvaluation, bool]:
    """Constrained pick over evaluated candidates.

    Feasible candidates compete on calibration MAE (ties go to the larger,
    less conservative level). When every candidate violates the budget, the
    penalized objective mae + penalty*max(over_rate - epsilon, 0) decides
    (ties go to the smaller, safer level); returns (choice, feasible).
    """
    if not candidates:
        raise InvalidGrid("no candidates to select from")
    feasible = [e for e in candidates if e.over_rate <= epsilon]
    if feasible:
        return min(feasible, key=lambda e: (e.mae, -e.tau)), True
    if penalty is None:
        raise ValueError(
            "no feasible candidate and no penalty weight configured; "
            "set RiskBudgetConfig.penalty or pass penalty="
        )
    best = min(
        candidates,
        key=lambda e: (e.mae + penalty * max(e.over_rate - epsilon, 0.0), e.tau),
    )
    return best, False


def run_selection(
    config: RiskBudgetConfig, evaluator: Evaluator, penalty: float | None = None
) -> SelectionResult:
    """Coarse-to-fine selection against an arbitrary candidate evaluator.

    Each level is evaluated once, by memo_ev, which raises an evaluator error
    that is not a RiskcastError as EvaluatorFailure, naming the level.
    """
    lam = penalty if penalty is not None else config.penalty
    memo: dict[float, CandidateEvaluation] = {}

    def memo_ev(tau: float) -> CandidateEvaluation:
        key = round(float(tau), 12)
        if key not in memo:
            try:
                memo[key] = evaluator(tau)
            except RiskcastError:
                raise
            except Exception as exc:
                raise EvaluatorFailure(
                    f"candidate evaluation failed at tau={tau}: {type(exc).__name__}: {exc}"
                ) from exc
        return memo[key]

    trainings_before = getattr(evaluator, "n_trainings", None)
    boundary = boundary_search(config, memo_ev)
    lo, hi = boundary.tau_lo, boundary.tau_hi
    fine = [memo_ev(t) for t in lin_space(lo, hi, 1 if lo == hi else config.grid_size)]
    best, is_feasible = select_from_grid(fine, config.epsilon, lam)
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


def resolve_penalty(config: RiskBudgetConfig, train: Samples) -> float:
    """The configured penalty, or 1000x the mean training throughput."""
    if config.penalty is not None:
        return config.penalty
    return 1000.0 * float(np.mean(train.Y))


def select_quantile(
    config: RiskBudgetConfig, train: Samples, cal: Samples, params: BackboneParams
) -> SelectionResult:
    """Train/evaluate candidates on real splits and select the operating level."""
    evaluator = QuantileEvaluator(train, cal, params)
    return run_selection(config, evaluator, penalty=resolve_penalty(config, train))


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

    best = None
    for row in rows:
        if row.over_rate <= epsilon and (best is None or row.mae < best.mae):
            best = row
    if best is not None:
        return BudgetScaleResult(best.factor, True, rows)
    best = rows[0]
    for row in rows[1:]:
        if row.over_rate < best.over_rate:
            best = row
    return BudgetScaleResult(best.factor, False, rows)


def budget_scale_calibrate(cal_batch: PredictionBatch, epsilon: float, c_grid=None) -> float:
    """The selected multiplicative factor for a point predictor."""
    return budget_scale_search(cal_batch, epsilon, c_grid).c_star
