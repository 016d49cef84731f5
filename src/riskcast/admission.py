"""Slot-level admission control driven by throughput forecasts.

Each slot admits floor(forecast / b) sessions of b Mbps; the truth supports
floor(actual / b). Sessions admitted beyond the oracle capacity are dropped,
so overestimation is the only way to drop sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBandwidth, SlotMismatch
from .metrics import PredictionBatch

ADMISSION_METRICS = ("mean_dropped", "violation_rate", "p95_dropped")


@dataclass(frozen=True)
class AdmissionOutcome:
    """Admitted/oracle/served/dropped session counts for one decision slot."""

    n_admit: int
    n_oracle: int
    n_served: int
    n_drop: int


def admit(y_safe: float, y_true: float, b: float) -> AdmissionOutcome:
    """Floor-based admission of b-Mbps sessions against a forecast, by simulate's rules."""
    if b <= 0:
        raise InvalidBandwidth(f"per-service bandwidth must be positive, got {b}")
    if not (0 <= y_safe < math.inf and 0 <= y_true < math.inf):
        raise ValueError(f"throughput values must be finite and non-negative, got {y_safe} and {y_true}")
    if not math.isfinite(max(y_safe, y_true) / b):
        raise InvalidBandwidth(f"per-service bandwidth {b} is too small: session counts overflow")
    n_admit = math.floor(y_safe / b)
    n_oracle = math.floor(y_true / b)
    return AdmissionOutcome(
        n_admit=n_admit,
        n_oracle=n_oracle,
        n_served=min(n_admit, n_oracle),
        n_drop=max(n_admit - n_oracle, 0),
    )


@dataclass(frozen=True)
class AdmissionReport:
    """Dropped-session statistics over a batch of decision slots."""

    mean_dropped: float
    violation_rate: float
    p95_dropped: float
    n_slots: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.violation_rate <= 1.0:
            raise ValueError("violation_rate must lie in [0, 1]")
        if not (0 <= self.p95_dropped < math.inf and 0 <= self.mean_dropped < math.inf):
            raise ValueError("drop statistics must be finite and non-negative")

    def metric(self, name: str) -> float:
        return float(getattr(self, name))


def simulate(batch: PredictionBatch, b: float) -> AdmissionReport:
    """One admission decision per (sample, horizon) element."""
    if b <= 0:
        raise InvalidBandwidth(f"per-service bandwidth must be positive, got {b}")
    if not math.isfinite(float(max(np.abs(batch.preds).max(), batch.truths.max())) / b):
        raise InvalidBandwidth(f"per-service bandwidth {b} is too small: session counts overflow")
    drops = np.maximum(np.floor(batch.preds / b) - np.floor(batch.truths / b), 0.0)
    return AdmissionReport(float(drops.mean()), float(np.mean(drops > 0)),
                           float(np.percentile(drops, 95.0)), drops.size)


def compare(baseline: AdmissionReport, candidate: AdmissionReport) -> dict[str, float | None]:
    """Relative reduction (baseline - candidate) / baseline per metric.

    A zero baseline makes the reduction undefined; those entries are None
    rather than a number.
    """
    if baseline.n_slots != candidate.n_slots:
        raise SlotMismatch(
            f"reports cover different slot counts: {baseline.n_slots} vs {candidate.n_slots}"
        )
    out: dict[str, float | None] = {}
    for name in ADMISSION_METRICS:
        base = baseline.metric(name)
        out[name] = None if base == 0 else (base - candidate.metric(name)) / base
    return out
