"""Accuracy and safety metrics over (prediction, truth) batches.

Overestimation is the harmful direction: besides MAE/RMSE we track how often
predictions exceed the truth (over_rate), how large those excesses are on
average (mpe), and how heavy their tail is (p95_pos_err). Low-throughput
subsets (lowest 30% / 10% of true values) isolate the regimes where
overestimation does the most damage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch

SUBSET_PERCENTILES = {"p30": 30.0, "p10": 10.0}
METRIC_NAMES = ("mae", "rmse", "over_rate", "mpe", "p95_pos_err")


@dataclass(frozen=True)
class PredictionBatch:
    """Paired N x H matrices of predicted and true throughput (Mbps)."""

    preds: np.ndarray
    truths: np.ndarray

    def __post_init__(self) -> None:
        p = np.atleast_2d(np.asarray(self.preds, dtype=np.float64))
        t = np.atleast_2d(np.asarray(self.truths, dtype=np.float64))
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: preds {p.shape} vs truths {t.shape}")
        if p.size == 0:
            raise EmptyBatch("batch has no elements")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
            raise ValueError("batch contains non-finite values")
        if np.any(t < 0):
            raise ValueError("truths must be non-negative")
        object.__setattr__(self, "preds", p)
        object.__setattr__(self, "truths", t)

    @property
    def n_elements(self) -> int:
        return self.preds.size

    def scaled(self, factor: float) -> "PredictionBatch":
        return PredictionBatch(self.preds * factor, self.truths)


def mae(batch: PredictionBatch) -> float:
    return float(np.mean(np.abs(batch.preds - batch.truths)))


def rmse(batch: PredictionBatch) -> float:
    return float(np.sqrt(np.mean((batch.preds - batch.truths) ** 2)))


def over_rate(batch: PredictionBatch) -> float:
    """Fraction of elements whose prediction strictly exceeds the truth."""
    return float(np.mean(batch.preds > batch.truths))


def mpe(batch: PredictionBatch) -> float:
    """Mean positive error: average of max(pred - truth, 0)."""
    return float(np.mean(np.maximum(batch.preds - batch.truths, 0.0)))


def p95_pos_err(batch: PredictionBatch) -> float:
    """95th percentile of max(pred - truth, 0), zeros included."""
    return float(np.percentile(np.maximum(batch.preds - batch.truths, 0.0), 95.0))


def subset_mask(batch: PredictionBatch, pct: float) -> np.ndarray:
    """Element mask selecting truths at or below the given truth percentile."""
    if pct <= 0 or pct >= 100:
        raise ValueError("percentile must lie in (0, 100)")
    return batch.truths <= np.percentile(batch.truths, pct)


def subsets(batch: PredictionBatch) -> dict[str, PredictionBatch]:
    """The batch as "all", plus its elements at or below the 30th and 10th truth
    percentiles as "p30" and "p10" (never empty: the smallest truth is in both)."""
    out = {"all": batch}
    for name, pct in SUBSET_PERCENTILES.items():
        mask = subset_mask(batch, pct)
        out[name] = PredictionBatch(batch.preds[mask], batch.truths[mask])
    return out


@dataclass(frozen=True)
class SafetyReport:
    """All five metrics for one predictor on one element set."""

    mae: float
    rmse: float
    over_rate: float
    mpe: float
    p95_pos_err: float
    n_elements: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.over_rate <= 1.0:
            raise ValueError("over_rate must lie in [0, 1]")
        if self.mpe > self.mae + 1e-9:
            raise ValueError("mpe cannot exceed mae")
        if self.p95_pos_err < 0:
            raise ValueError("p95_pos_err must be non-negative")

    def metric(self, name: str) -> float:
        return float(getattr(self, name))


def safety_report(batch: PredictionBatch) -> SafetyReport:
    """All five metrics over every element of the batch."""
    return SafetyReport(
        mae=mae(batch),
        rmse=rmse(batch),
        over_rate=over_rate(batch),
        mpe=mpe(batch),
        p95_pos_err=p95_pos_err(batch),
        n_elements=batch.n_elements,
    )
