"""Risk-budgeted safe throughput forecasting.

Train a family of lower-quantile throughput predictors, select the operating
quantile on a calibration split under an overestimation budget, and evaluate
both safety metrics and admission-control consequences against point and
scale-calibrated baselines.
"""

from .admission import AdmissionOutcome, AdmissionReport, admit, compare, simulate
from .backbone import (
    BackboneParams,
    QuantileModel,
    Workers,
    pinball_loss,
    pinball_subgradient,
    train_point_model,
    train_quantile_model,
)
from .calibration import (
    BudgetScaleResult,
    CandidateEvaluation,
    QuantileEvaluator,
    RiskBudgetConfig,
    SelectionResult,
    boundary_search,
    budget_scale_search,
    run_selection,
    select_from_grid,
    select_quantile,
)
from .data import (
    CyclicScaleNoise,
    GaussianNoise,
    NoNoise,
    Samples,
    SyntheticSpec,
    Trace,
    UniformNoise,
    WindowedDataset,
    derive_time_features,
    generate_synthetic,
    ingest_csv,
    make_windows,
)
from .metrics import (
    PredictionBatch,
    SafetyReport,
    mae,
    mpe,
    over_rate,
    p95_pos_err,
    rmse,
    safety_report,
    subsets,
)

__version__ = "0.1.0"
