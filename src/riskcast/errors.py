"""Exception types shared across the package."""

from __future__ import annotations


class RiskcastError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RiskcastError):
    """A value in an input file could not be parsed."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class MissingColumn(RiskcastError):
    """A required column is absent from an input file."""


class NonMonotoneTimestamps(RiskcastError):
    """Timestamps are not strictly increasing after sorting."""


class NegativeThroughput(RiskcastError):
    """A throughput value is negative."""


class TimestampGap(RiskcastError):
    """Two consecutive timestamps lie further apart, or closer together, than the trace's usual step."""


class TraceTooShort(RiskcastError):
    """The trace is too short for one window (history plus horizon) in each split."""


class InvalidTau(RiskcastError):
    """A quantile level lies outside the open interval (0, 1)."""


class EmptyTrainingSet(RiskcastError):
    """No samples available for model fitting."""


class LayoutMismatch(RiskcastError):
    """Feature layout differs from the one the model was trained on."""


class NonFiniteFeatures(RiskcastError):
    """A feature matrix passed for training or prediction holds NaN or infinite values."""


class NonFiniteTargets(RiskcastError):
    """A split passed for training or calibration holds NaN or infinite targets."""


class EmptyBatch(RiskcastError):
    """A prediction batch contains no elements."""


class FitFailure(RiskcastError):
    """A point or quantile model fit raised, for example because a worker process died."""


class EmptyGrid(RiskcastError):
    """A grid to search holds no values: a list of candidate levels, or a scale-factor grid."""


class InvalidBandwidth(RiskcastError):
    """Per-service bandwidth must be strictly positive."""


class SlotMismatch(RiskcastError):
    """Two admission reports cover different slot counts."""


class ConfigError(RiskcastError):
    """An experiment config file is missing or inconsistent."""
