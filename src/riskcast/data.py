"""Trace ingestion, feature windowing, and synthetic trace generation.

A trace is a per-second multivariate throughput series for one location.
Supervised samples are built by sliding a history window of length L over the
trace and pairing it with the next H throughput values; splits are
chronologically contiguous so calibration and test data always lie strictly
after the training period.
"""

from __future__ import annotations

import csv
import math
import operator
import statistics
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    MissingColumn,
    NegativeThroughput,
    NonFiniteFeatures,
    NonMonotoneTimestamps,
    ParseError,
    TimestampGap,
    TraceTooShort,
)

# Canonical auxiliary series, in the order they appear in feature layouts.
AUX_KEYS = (
    "elevation_deg",
    "azimuth_deg",
    "sat_distance_km",
    "sat_id_code",
    "num_candidates",
    "cloud_pct",
    "pressure_hpa",
    "humidity_pct",
)

TIME_FEATURES = ("phase15", "minute", "hour", "day_of_week")

THROUGHPUT_COLUMN = "throughput_mbps"

_SECONDS_PER_DAY = 86_400
_INT64 = np.iinfo(np.int64)


def _whole_seconds(timestamps) -> np.ndarray:
    """The timestamps as int64, or ValueError if any is not a whole number of
    seconds within the 64-bit integer range."""
    given = np.asarray(timestamps)
    try:
        with np.errstate(invalid="ignore"):
            ts = given.astype(np.int64)
    except OverflowError:  # a Python int past 64 bits
        ts = None
    if ts is None or not np.all(ts == given):  # the cast truncates 1.7 to 1, and NaN to anything
        raise ValueError("timestamps must be finite whole numbers of seconds within the 64-bit integer range")
    return ts


def _freeze(arr, copy: bool = True):
    """arr as a read-only array. A read-only array or WindowMatrix passes
    through as it is, so a view over a trace stays a view; anything else is
    copied into a contiguous array that is frozen, so a caller's array stays
    writable. An array riskcast has just made is passed with copy=False and
    frozen in place where it is contiguous."""
    if isinstance(arr, WindowMatrix) or (isinstance(arr, np.ndarray) and not arr.flags.writeable):
        return arr
    arr = np.array(arr, order="C") if copy else np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Trace:
    """A timestamped throughput series with optional auxiliary series."""

    name: str
    timestamps: np.ndarray
    throughput: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = _whole_seconds(self.timestamps)
        tp = np.asarray(self.throughput, dtype=np.float64)
        if ts.ndim != 1 or tp.ndim != 1 or len(ts) != len(tp):
            raise ValueError("timestamps and throughput must be 1-D and equal length")
        if not np.all(ts[1:] > ts[:-1]):
            raise NonMonotoneTimestamps("timestamps must be strictly increasing")
        if not np.all(np.isfinite(tp)):
            raise ValueError("throughput contains non-finite values")
        if np.any(tp < 0):
            raise NegativeThroughput("throughput contains negative values")
        aux = {}
        for key, series in self.aux.items():
            if key not in AUX_KEYS:
                raise ValueError(f"unknown aux series {key!r}")
            s = np.asarray(series, dtype=np.float64)
            if s.shape != tp.shape:
                raise ValueError(f"aux series {key!r} length differs from throughput")
            if not np.all(np.isfinite(s)):
                raise ValueError(f"aux series {key!r} contains non-finite values")
            aux[key] = _freeze(s)
        object.__setattr__(self, "timestamps", _freeze(ts, copy=False))
        object.__setattr__(self, "throughput", _freeze(tp))
        object.__setattr__(self, "aux", aux)

    def __len__(self) -> int:
        return len(self.throughput)

    @property
    def aux_keys(self) -> tuple[str, ...]:
        return tuple(k for k in AUX_KEYS if k in self.aux)


def derive_time_features(timestamps: np.ndarray) -> dict[str, np.ndarray]:
    """Per-timestep clock features (UTC): 15-second phase, minute, hour, weekday.

    day_of_week uses Python's convention (Monday = 0); the Unix epoch is a
    Thursday, code 3.
    """
    ts = _whole_seconds(timestamps)
    return {
        "phase15": (ts % 15).astype(np.float64),
        "minute": ((ts % 3600) // 60).astype(np.float64),
        "hour": ((ts % _SECONDS_PER_DAY) // 3600).astype(np.float64),
        "day_of_week": ((ts // _SECONDS_PER_DAY + 3) % 7).astype(np.float64),
    }


@dataclass(frozen=True, eq=False)
class WindowMatrix:
    """The windowed feature matrix of `rows` samples, read in place from its series.

    Column j is lag j % history of series j // history, and row i of that
    column is series[j // history][start + i + j % history], so a column is
    a contiguous slice of one series and no rows x columns float matrix is
    ever held. The series are frozen, finite float64 arrays, so every
    feature is finite. It answers what the trainer and predictor read: len,
    shape, nbytes (the matrix's size), X[:, j] (a read-only slice),
    X[rows, j] (a gather) and X[lo:hi] (another view). np.asarray(X) builds
    the matrix.
    """

    series: tuple[np.ndarray, ...]
    history: int
    start: int
    rows: int

    ndim = 2

    def __post_init__(self) -> None:
        series = tuple(_freeze(np.asarray(s, dtype=np.float64)) for s in self.series)
        if self.history < 1 or self.start < 0 or self.rows < 0:
            raise ValueError("history must be >= 1, and start and rows >= 0")
        if any(s.ndim != 1 or len(s) < max(self.start + self.rows, 1) + self.history - 1 for s in series):
            raise ValueError("every series must be 1-D and cover the windows of every row")
        if not all(np.isfinite(s).all() for s in series):
            raise NonFiniteFeatures("window series hold non-finite values")
        object.__setattr__(self, "series", series)

    def __len__(self) -> int:
        return self.rows

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, len(self.series) * self.history

    @property
    def nbytes(self) -> int:
        return self.rows * self.shape[1] * 8  # float64

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(self.rows)
            if step != 1:
                raise IndexError("a window view slices rows with step 1 only")
            return WindowMatrix(self.series, self.history, self.start + lo, max(hi - lo, 0))
        rows, j = key
        s, lag = divmod(operator.index(j), self.history)  # an s out of range raises IndexError
        lo = self.start + lag
        return self.series[s][lo : lo + self.rows][rows]

    def __setitem__(self, key, value) -> None:
        raise ValueError("a window view is read-only")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a window view holds no matrix to share; np.asarray builds one")
        X = np.hstack([
            np.lib.stride_tricks.sliding_window_view(s, self.history)[self.start : self.start + self.rows]
            for s in self.series
        ])
        return X if dtype is None else X.astype(dtype, copy=False)


@dataclass(frozen=True)
class Samples:
    """A view over one split: feature matrix X, targets Y, and origins.

    For the splits of a WindowedDataset, X is a WindowMatrix and Y a
    read-only view over the trace's throughput; otherwise both are arrays,
    held read-only."""

    X: WindowMatrix | np.ndarray
    Y: np.ndarray
    origin_index: np.ndarray
    layout: tuple[str, ...]

    def __post_init__(self) -> None:
        if np.ndim(self.Y) != 2 or not len(self.X) == len(self.Y) == len(self.origin_index):
            raise ValueError("Y must be 2-D, and X, Y and origin_index must have one row per sample")
        object.__setattr__(self, "X", _freeze(self.X))
        object.__setattr__(self, "Y", _freeze(self.Y))
        object.__setattr__(self, "origin_index", _freeze(self.origin_index))
        object.__setattr__(self, "layout", tuple(self.layout))

    def __len__(self) -> int:
        return len(self.X)


@dataclass(frozen=True)
class WindowedDataset(Samples):
    """Supervised (X, Y) samples with chronological train/cal/test partitions.

    Sample i originates at trace index origin_index[i]; its features cover the
    preceding L steps and its targets the following H steps. Split membership
    is decided purely by origin index, so the partitions are contiguous in
    time. From make_windows, X is a WindowMatrix and Y the read-only
    sliding-window view of the trace's throughput, so Y[i, h] is
    throughput[origin_index[i] + 1 + h], each column Y[:, h] is a contiguous
    slice of the series, and no target matrix is copied.
    """

    train_end: int
    cal_end: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.Y < 0):
            raise ValueError("targets must be non-negative")
        if not 0 <= self.train_end <= self.cal_end <= len(self.X):
            raise ValueError("split boundaries out of order")

    def _slice(self, lo: int, hi: int) -> Samples:
        return Samples(self.X[lo:hi], self.Y[lo:hi], self.origin_index[lo:hi], self.layout)

    # Cached, so every reader of a split gets the same Samples.
    @cached_property
    def train(self) -> Samples:
        return self._slice(0, self.train_end)

    @cached_property
    def calibration(self) -> Samples:
        return self._slice(self.train_end, self.cal_end)

    @cached_property
    def test(self) -> Samples:
        return self._slice(self.cal_end, len(self))


def build_layout(history: int, aux_keys: tuple[str, ...]) -> tuple[str, ...]:
    """Ordered feature names: throughput lags, aux lags, then clock features."""
    names: list[str] = []
    for feat in ("throughput",) + tuple(aux_keys) + TIME_FEATURES:
        names.extend(f"{feat}.lag{history - 1 - j}" for j in range(history))
    return tuple(names)


def check_split_ratios(split_ratios) -> tuple[float, float, float]:
    """The (train, calibration, test) fractions as a tuple; all three positive, summing to 1."""
    ratios = tuple(split_ratios)
    if len(ratios) != 3 or any(not r > 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split_ratios must be three positive fractions summing to 1, got {list(ratios)}")
    return ratios


def check_timestamp_gaps(trace: Trace) -> None:
    """Raise TimestampGap unless every step between consecutive timestamps
    is the trace's usual (median) step: windows slide over rows, so a longer
    step would put a gap inside them and a shorter one would space their lags
    unevenly. The first longer step is reported if there is one, else the
    first shorter one. The timestamps ascend, so their steps are exact in
    uint64, where an int64 difference could wrap, and are compared with
    their median in integers, as float64 cannot tell them apart above 2**53."""
    steps = np.diff(trace.timestamps.view(np.uint64))
    if steps.size == 0:
        return
    a, b = np.sort(steps)[[(steps.size - 1) // 2, steps.size // 2]]
    lo, half = a + (b - a) // 2, (b - a) % 2  # the median is lo + half / 2: longer steps exceed lo
    usual = int(lo) + int(half) / 2
    gaps = np.flatnonzero(steps > lo)
    if gaps.size:
        row = int(gaps[0]) + 1
        raise TimestampGap(
            f"timestamp gap before row {row}: step {steps[row - 1]} against the trace's usual step "
            f"{usual:g}; windows would span it"
        )
    short = np.flatnonzero(steps < lo + half)
    if short.size:
        row = int(short[0]) + 1
        raise TimestampGap(
            f"timestamp step before row {row}: step {steps[row - 1]} is shorter than the trace's usual "
            f"step {usual:g}; windows would space their lags unevenly"
        )


def make_windows(
    trace: Trace,
    history: int,
    horizon: int,
    split_ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
) -> WindowedDataset:
    """Slide a length-`history` window over the trace and split chronologically.

    One sample per valid origin index; sample counts per split match the
    ratios within one sample. Raises TraceTooShort when a split would be
    empty, and TimestampGap as check_timestamp_gaps does.
    """
    if history < 1 or horizon < 1:
        raise ValueError("history and horizon must be >= 1")
    ratios = check_split_ratios(split_ratios)
    n = len(trace) - history - horizon + 1
    if n < 1:
        raise TraceTooShort(
            f"trace of length {len(trace)} cannot fit history {history} + horizon {horizon}"
        )
    train_end = int(math.floor(ratios[0] * n + 0.5))
    cal_end = int(math.floor((ratios[0] + ratios[1]) * n + 0.5))
    if not 0 < train_end < cal_end < n:
        raise TraceTooShort(
            f"trace of length {len(trace)} gives {n} windows, split {train_end}/{cal_end - train_end}/"
            f"{n - cal_end}; train, calibration and test each need at least one"
        )
    check_timestamp_gaps(trace)

    aux_keys = trace.aux_keys
    clock = derive_time_features(trace.timestamps)
    series = (trace.throughput, *(trace.aux[k] for k in aux_keys),
              *(_freeze(clock[k], copy=False) for k in TIME_FEATURES))
    Y = np.lib.stride_tricks.sliding_window_view(trace.throughput, horizon)[history : history + n]
    origins = _freeze(np.arange(history - 1, history - 1 + n, dtype=np.int64), copy=False)
    return WindowedDataset(
        X=WindowMatrix(series, history, 0, n),
        Y=Y,
        origin_index=origins,
        layout=build_layout(history, aux_keys),
        train_end=train_end,
        cal_end=cal_end,
    )


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoNoise:
    """Zero noise; the quantile function is identically zero."""

    kind: str = field(default="none", init=False)

    def sample(self, rng: np.random.Generator, timestamps: np.ndarray) -> np.ndarray:
        return np.zeros(len(timestamps))

    def quantile(self, tau: float, timestamps: np.ndarray | None = None):
        return 0.0


@dataclass(frozen=True)
class UniformNoise:
    """Additive noise uniform on (-half_width, +half_width)."""

    half_width: float
    kind: str = field(default="uniform", init=False)

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")

    def sample(self, rng: np.random.Generator, timestamps: np.ndarray) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=len(timestamps))

    def quantile(self, tau: float, timestamps: np.ndarray | None = None):
        return -self.half_width + 2.0 * self.half_width * tau


@dataclass(frozen=True)
class GaussianNoise:
    """Additive zero-mean Gaussian noise."""

    sigma: float
    kind: str = field(default="gaussian", init=False)

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def sample(self, rng: np.random.Generator, timestamps: np.ndarray) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=len(timestamps)) if self.sigma else np.zeros(len(timestamps))

    def quantile(self, tau: float, timestamps: np.ndarray | None = None):
        return float(self.sigma * statistics.NormalDist().inv_cdf(tau))


@dataclass(frozen=True)
class CyclicScaleNoise:
    """Base noise whose scale oscillates with a fixed period.

    scale(t) = 1 + depth * sin(2*pi*t/period); depth must stay below 1 so the
    scale remains positive and the conditional quantile is just the base
    quantile times scale(t).
    """

    base: UniformNoise | GaussianNoise
    period: float = 3600.0
    depth: float = 0.5
    kind: str = field(default="cyclic_scale", init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.base, (UniformNoise, GaussianNoise)):
            raise ValueError("cyclic_scale base must be uniform or gaussian")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= self.depth < 1:
            raise ValueError("depth must be in [0, 1)")

    def scale(self, timestamps: np.ndarray) -> np.ndarray:
        t = np.asarray(timestamps, dtype=np.float64)
        return 1.0 + self.depth * np.sin(2.0 * np.pi * t / self.period)

    def sample(self, rng: np.random.Generator, timestamps: np.ndarray) -> np.ndarray:
        return self.base.sample(rng, timestamps) * self.scale(timestamps)

    def quantile(self, tau: float, timestamps: np.ndarray | None = None):
        if timestamps is None:
            raise ValueError("cyclic-scale noise needs timestamps for its conditional quantile")
        return self.base.quantile(tau) * self.scale(timestamps)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic-plus-noise throughput trace.

    The deterministic part is a base level, a daily sinusoid, and a one-slot
    dip every `handover_period` seconds; noise is added on top and the result
    is clamped at zero.
    """

    length: int
    seed: int
    base_level: float
    diurnal_amplitude: float = 0.0
    handover_period: int = 15
    handover_drop: float = 0.0
    noise: NoNoise | UniformNoise | GaussianNoise | CyclicScaleNoise = field(
        default_factory=NoNoise
    )
    start_timestamp: int = 0
    kind: str = field(default="synthetic", init=False)

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.handover_period < 1:
            raise ValueError("handover_period must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not _INT64.min <= self.start_timestamp <= _INT64.max - (self.length - 1):
            raise ValueError(f"start_timestamp {self.start_timestamp} and length {self.length} put timestamps "
                             "outside the 64-bit integer range")


def synthetic_timestamps(spec: SyntheticSpec) -> np.ndarray:
    return np.arange(spec.start_timestamp, spec.start_timestamp + spec.length, dtype=np.int64)


def deterministic_level(spec: SyntheticSpec) -> np.ndarray:
    """The noise-free component of a synthetic trace, before clamping."""
    t = synthetic_timestamps(spec).astype(np.float64)
    level = np.full(spec.length, spec.base_level, dtype=np.float64)
    if spec.diurnal_amplitude:
        level += spec.diurnal_amplitude * np.sin(2.0 * np.pi * t / _SECONDS_PER_DAY)
    if spec.handover_drop:
        level -= spec.handover_drop * (synthetic_timestamps(spec) % spec.handover_period == 0)
    return level


def generate_synthetic(spec: SyntheticSpec) -> Trace:
    """Deterministic given the seed: level + noise, clamped at zero."""
    ts = synthetic_timestamps(spec)
    rng = np.random.default_rng(spec.seed)
    values = deterministic_level(spec) + spec.noise.sample(rng, ts)
    throughput = _freeze(np.maximum(values, 0.0), copy=False)  # read-only, so Trace keeps it uncopied
    return Trace(name=f"synthetic-{spec.seed}", timestamps=ts, throughput=throughput)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSource:
    """A trace read from a CSV file: `schema` and `name` are ingest_csv's arguments."""

    path: str
    schema: dict[str, str] = field(default_factory=dict)
    name: str | None = None
    kind: str = field(default="csv", init=False)


def default_schema() -> dict[str, str]:
    schema = {"timestamp": "timestamp", "throughput": THROUGHPUT_COLUMN}
    schema.update({k: k for k in AUX_KEYS})
    return schema


def ingest_csv(path: str, schema: dict[str, str] | None = None, name: str | None = None) -> Trace:
    """Read a UTF-8 trace CSV (a leading byte-order mark is skipped), sort
    by timestamp, and check it as Trace does.

    `schema` maps canonical field names (timestamp, throughput, aux keys) to
    the column names actually present in the file; omitted aux fields fall
    back to their canonical names and are skipped when absent.
    """
    mapping = default_schema()
    if schema:
        for key, col in schema.items():
            if key not in mapping:
                raise MissingColumn(f"unknown schema field {key!r}")
            mapping[key] = col

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for required in ("timestamp", "throughput"):
                if mapping[required] not in header:
                    raise MissingColumn(f"required column {mapping[required]!r} not found")
            aux_present = [k for k in AUX_KEYS if mapping[k] in header]

            timestamps: list[int] = []
            lines: list[int] = []  # each row's line in the file
            throughput: list[float] = []
            aux_values: dict[str, list[float]] = {k: [] for k in aux_present}
            for row in reader:
                line_no = reader.line_num
                if None in row:  # DictReader files cells beyond the header under None
                    raise ParseError(f"{len(header) + len(row[None])} cells under a header of {len(header)}",
                                     row=line_no)
                timestamps.append(_parse_int(row, mapping["timestamp"], line_no))
                lines.append(line_no)
                throughput.append(_parse_float(row, mapping["throughput"], line_no))
                for key in aux_present:
                    aux_values[key].append(_parse_float(row, mapping[key], line_no))
        except UnicodeDecodeError:
            raise ParseError(f"trace {path} is not UTF-8 text") from None
        except csv.Error as exc:
            raise ParseError(f"trace {path}: {exc}", row=reader.line_num) from None
    if not timestamps:
        raise TraceTooShort(f"trace {path} has no data rows")

    ts = np.asarray(timestamps, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    repeated = np.flatnonzero(ts[1:] == ts[:-1])
    if repeated.size:  # the stable sort keeps a repeat after its first row
        i = repeated[0]
        raise ParseError(f"timestamp {ts[i]} already on row {lines[order[i]]}", row=lines[order[i + 1]],
                         column=mapping["timestamp"])
    aux = {k: _freeze(np.asarray(v, dtype=np.float64)[order], copy=False) for k, v in aux_values.items()}
    return Trace(name=name or str(path), timestamps=ts,
                 throughput=_freeze(np.asarray(throughput, dtype=np.float64)[order], copy=False), aux=aux)


def _parse_int(row: dict, column: str, line_no: int) -> int:
    raw = row.get(column) or ""  # int and float skip whitespace themselves; str.strip also takes \x1c-\x1f
    try:
        value = int(raw)
    except ValueError:
        try:
            float(raw)  # float decides what is a number: Decimal also reads '1__0' and 'nan123'
        except ValueError:
            raise ParseError("not an integer", row=line_no, column=column) from None
        from decimal import Decimal  # here only: a float rounds above 2**53, a Decimal keeps every digit

        value = Decimal(raw)
        if not value.is_finite() or value != value.to_integral_value():
            raise ParseError("timestamp is not a whole number of seconds", row=line_no, column=column)
    if not _INT64.min <= value <= _INT64.max:
        raise ParseError("timestamp outside the 64-bit integer range", row=line_no, column=column)
    return int(value)


def _parse_float(row: dict, column: str, line_no: int) -> float:
    raw = row.get(column) or ""
    try:
        value = float(raw)
    except ValueError:
        raise ParseError("not a number", row=line_no, column=column) from None
    if not math.isfinite(value):
        raise ParseError("non-finite value", row=line_no, column=column)
    return value


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write a trace in the standard CSV layout (timestamp, throughput, aux)."""
    columns = ["timestamp", THROUGHPUT_COLUMN, *trace.aux_keys]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for i in range(len(trace)):
            row = [int(trace.timestamps[i]), repr(float(trace.throughput[i]))]
            row.extend(repr(float(trace.aux[k][i])) for k in trace.aux_keys)
            writer.writerow(row)
