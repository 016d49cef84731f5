"""Experiment orchestration: config parsing, pipelines, and report emission.

A run ingests or generates a trace, windows it, trains the point predictor
and the quantile family, calibrates both risk controls on the calibration
split only, and then scores everything on the held-out test split. All
randomness derives from the single top-level seed through stage-name-keyed
hashing, so identical configs reproduce identical reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

import yaml

from . import admission as admission_mod
from . import data as data_mod
from .admission import ADMISSION_METRICS, AdmissionReport
from .backbone import BackboneParams, Workers, train_point_model
from .calibration import (
    BudgetScaleResult,
    QuantileEvaluator,
    RiskBudgetConfig,
    SelectionResult,
    budget_scale_search,
    resolve_penalty,
    run_selection,
)
from .errors import ConfigError, EmptySweep, PointFitFailure, RiskcastError
from .metrics import METRIC_NAMES, PredictionBatch, SafetyReport, safety_report, subsets

METHOD_POINT = "point"
METHOD_BUDGET_SCALE = "budget_scale"
METHOD_SAFE_QUANTILE = "safe_quantile"
_METHOD_ORDER = (METHOD_POINT, METHOD_BUDGET_SCALE, METHOD_SAFE_QUANTILE)

DEFAULT_EPSILONS = (0.30, 0.35, 0.40, 0.45, 0.50)


def stage_seed(seed: int, stage: str) -> int:
    """Derive one stage's RNG seed from the top-level seed by keyed hashing."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: data_mod.CsvSource | data_mod.SyntheticSpec
    history: int = 75
    horizon: int = 15
    split_ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    risk: RiskBudgetConfig = field(default_factory=lambda: RiskBudgetConfig(epsilon=0.35))
    backbone: BackboneParams = field(default_factory=BackboneParams)
    baselines: tuple[str, ...] = (METHOD_POINT, METHOD_BUDGET_SCALE)
    admission_b: float = 10.0
    seed: int = 0
    output_dir: str = "runs/experiment"


# The fields that the YAML and config.json name otherwise.
_YAML_KEYS = {"history": "L", "horizon": "H", "grid_size": "M", "penalty": "lambda"}


def _keys(cls) -> tuple[str, ...]:
    """The keys of cls's config section: its field names, as the YAML names them."""
    return tuple(_YAML_KEYS.get(f.name, f.name) for f in fields(cls))


def config_dict(config: ExperimentConfig) -> dict:
    """The config as config.json records it, in the YAML's keys and without
    output_dir; config_from_dict reads it back."""
    return asdict(config, dict_factory=lambda items: {
        _YAML_KEYS.get(key, key): value for key, value in items if key != "output_dir"
    })


def config_hash(config: ExperimentConfig) -> str:
    """Hash of every semantically meaningful field (output_dir excluded)."""
    canonical = json.dumps(config_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


_TOP_KEYS = _keys(ExperimentConfig)
_RISK_KEYS = _keys(RiskBudgetConfig)
# Backbone keys that name the one behaviour there is: each is accepted with
# this value only, and is not written to config.json. Every tree fits every
# training row, so subsample is 1.0.
_BACKBONE_FIXED = {"kind": "boosted_trees", "subsample": 1.0}
_BACKBONE_KEYS = (*_BACKBONE_FIXED, *_keys(BackboneParams))
_DATASET_KEYS = {"csv": _keys(data_mod.CsvSource),
                 "synthetic": (*_keys(data_mod.SyntheticSpec), "noise_model")}
_NOISES = {cls.kind: cls for cls in (data_mod.NoNoise, data_mod.UniformNoise, data_mod.GaussianNoise,
                                     data_mod.CyclicScaleNoise)}
_REQUIRED = object()


def _section(value, name: str, allowed=None):
    """get(key, convert, default) over a mapping (null reads as empty) that holds
    only `allowed` keys; a value that fails to convert is reported as name.key."""
    raw = {} if value is None else value
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    unknown = set(raw) - set(allowed) if allowed is not None else set()
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")

    def get(key: str, convert, default=_REQUIRED):
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing key {key!r} in {name}")
            return default
        try:
            return convert(raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from exc

    return get


def _build(name: str, make, /, **kwargs):
    """make(**kwargs), with a rejected value reported against `name`: a
    config section or a command-line flag."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _exact(value, kind: type):
    """The value unchanged if it already is a `kind`: the one type rule for
    config values. A bool is never a number, an int also passes as a float,
    and a float is finite (NaN, inf and ints beyond the float range fail)."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _typed(value, hint):
    """The value unchanged if it passes _exact for the annotation `hint`:
    int, float or str, or one of them `| None`."""
    if value is None and type(None) in get_args(hint):
        return value
    return _exact(value, (get_args(hint) or (hint,))[0])


def _list_of(kind: type):
    return lambda values: tuple(_exact(value, kind) for value in _exact(values, list))


def _schema(value) -> dict[str, str]:
    """dataset.schema: canonical field -> column name, null reading as empty."""
    mapping = _exact({} if value is None else value, dict)
    return {_exact(key, str): _exact(column, str) for key, column in mapping.items()}


def _at_least_one(value) -> int:
    if _exact(value, int) < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _positive_finite(value) -> float:
    if not _exact(value, float) > 0.0:
        raise ValueError(f"must be a finite number > 0, got {value}")
    return value


def _read(cls, get, name: str, defaults: dict | None = None, /, **given):
    """cls built from the config section that `get` reads: each init field not
    `given` is read under its YAML key and must pass _typed for its annotation;
    a missing one takes its `defaults` entry, else the dataclass default."""
    hints, defaults = get_type_hints(cls), defaults or {}
    for f in fields(cls):
        if f.init and f.name not in given:
            default = defaults.get(f.name, _REQUIRED if f.default is MISSING else f.default)
            given[f.name] = get(_YAML_KEYS.get(f.name, f.name), partial(_typed, hint=hints[f.name]), default)
    return _build(name, cls, **given)


def _noise(raw, name: str):
    """A noise model from its section; null, or no kind, means no noise."""
    kind = _section(raw, name)("kind", partial(_exact, kind=str), "none")
    if kind not in _NOISES:
        raise ConfigError(f"unknown noise kind {kind!r}")
    cls = _NOISES[kind]
    get = _section(raw, name, _keys(cls))
    if cls is data_mod.CyclicScaleNoise:
        return _read(cls, get, name, base=get("base", partial(_noise, name=f"{name}.base")))
    return _read(cls, get, name)


def _dataset(raw, seed: int):
    kind = _section(raw, "dataset")("kind", partial(_exact, kind=str))
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    get = _section(raw, "dataset", _DATASET_KEYS[kind])
    if kind == "csv":
        return _read(data_mod.CsvSource, get, "dataset", schema=get("schema", _schema, {}))
    key = "noise_model" if "noise_model" in raw else "noise"
    noise = get(key, partial(_noise, name=f"dataset.{key}"), data_mod.NoNoise())
    return _read(data_mod.SyntheticSpec, get, "dataset", {"seed": stage_seed(seed, "data")}, noise=noise)


def config_from_dict(raw: dict) -> ExperimentConfig:
    get = _section(raw, "config", _TOP_KEYS)
    seed = get("seed", partial(_exact, kind=int), 0)
    risk = _read(RiskBudgetConfig, _section(raw.get("risk"), "risk", _RISK_KEYS), "risk", {"epsilon": 0.35})
    backbone_get = _section(raw.get("backbone"), "backbone", _BACKBONE_KEYS)
    for key, only in _BACKBONE_FIXED.items():
        value = backbone_get(key, partial(_exact, kind=type(only)), only)
        if value != only:
            raise ConfigError(f"backbone.{key}: the only {key} is {only}, got {value!r}")
    backbone = _read(BackboneParams, backbone_get, "backbone", {"seed": stage_seed(seed, "backbone")})
    baselines = get("baselines", _list_of(str), (METHOD_POINT, METHOD_BUDGET_SCALE))
    unknown = set(baselines) - {METHOD_POINT, METHOD_BUDGET_SCALE}
    if unknown:
        raise ConfigError(f"unknown baselines: {sorted(unknown)}")
    return ExperimentConfig(
        dataset=get("dataset", partial(_dataset, seed=seed)),
        history=get("L", _at_least_one, 75),
        horizon=get("H", _at_least_one, 15),
        split_ratios=get("split_ratios", lambda r: data_mod.check_split_ratios(_list_of(float)(r)),
                         (0.7, 0.15, 0.15)),
        risk=risk,
        backbone=backbone,
        baselines=baselines,
        admission_b=get("admission_b", _positive_finite, 10.0),
        seed=seed,
        output_dir=get("output_dir", partial(_exact, kind=str), "runs/experiment"),
    )


def load_config(
    path: str,
    seed: int | None = None,
    output_dir: str | None = None,
    epsilon: float | None = None,
) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    if seed is not None:
        # Derived stage seeds follow the override; an explicit backbone.seed
        # in the file stays pinned.
        raw = {**raw, "seed": seed}
    config = config_from_dict(raw)
    if output_dir is not None:
        config = replace(config, output_dir=output_dir)
    if epsilon is not None:
        risk = _build(f"--epsilon {epsilon}", config.risk.with_epsilon, epsilon=epsilon)
        config = replace(config, risk=risk)
    return config


def load_trace(config: ExperimentConfig) -> data_mod.Trace:
    ds = config.dataset
    if ds.kind == "csv":
        return data_mod.ingest_csv(ds.path, ds.schema or None, name=ds.name)
    return data_mod.generate_synthetic(ds)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


@dataclass
class ExperimentBundle:
    config: ExperimentConfig
    selection: SelectionResult
    budget_scale: BudgetScaleResult | None
    safety: dict[str, dict[str, SafetyReport]]  # method -> subset ("all", "p30", "p10") -> report
    admission: dict[str, dict[str, AdmissionReport]]
    output_dir: Path


@dataclass
class BudgetOutcome:
    """One budget's calibrated risk controls and the test batches they give."""

    epsilon: float
    selection: SelectionResult
    budget_scale: BudgetScaleResult | None
    batches: dict[str, PredictionBatch]


def calibrate_budgets(
    config: ExperimentConfig, dataset: data_mod.WindowedDataset, epsilons: list[float]
) -> list[BudgetOutcome]:
    """Calibrate both risk controls at each budget, then predict the test split.

    One evaluator serves every budget, so a level shared between budgets is
    trained once; the point model is trained once and predicted once per split.
    One worker set fits every model and predicts it on the calibration
    split; it is shut down before the first test prediction.
    """
    train, cal, test = dataset.train, dataset.calibration, dataset.test
    penalty = resolve_penalty(config.risk, train)
    point_model = cal_point = None
    with Workers(train, cal) as workers:
        evaluator = QuantileEvaluator(train, cal, config.backbone, workers)
        if METHOD_POINT in config.baselines or METHOD_BUDGET_SCALE in config.baselines:
            try:
                point_model = train_point_model(train, config.backbone, workers=workers)
            except RiskcastError:
                raise
            except Exception as exc:
                raise PointFitFailure(f"point model fit failed: {type(exc).__name__}: {exc}") from exc
        if METHOD_BUDGET_SCALE in config.baselines:
            cal_point = PredictionBatch(point_model.predict(cal.X, cal.layout), cal.Y)
        controls = [
            (
                e,
                run_selection(config.risk.with_epsilon(e), evaluator, penalty=penalty),
                budget_scale_search(cal_point, e) if cal_point is not None else None,
            )
            for e in epsilons
        ]

    # Test predictions are made only after every calibration decision: the
    # protocol guard that keeps test data out of risk control.
    test_point = point_model.predict(test.X, test.layout) if point_model is not None else None
    outcomes: list[BudgetOutcome] = []
    for e, selection, scale in controls:
        batches: dict[str, PredictionBatch] = {}
        if METHOD_POINT in config.baselines:
            batches[METHOD_POINT] = PredictionBatch(test_point, test.Y)
        if scale is not None:
            batches[METHOD_BUDGET_SCALE] = PredictionBatch(test_point * scale.c_star, test.Y)
        batches[METHOD_SAFE_QUANTILE] = PredictionBatch(
            selection.model.predict(test.X, test.layout), test.Y
        )
        outcomes.append(BudgetOutcome(e, selection, scale, batches))
    return outcomes


def _windows(config: ExperimentConfig) -> data_mod.WindowedDataset:
    trace = load_trace(config)
    return data_mod.make_windows(trace, config.history, config.horizon, config.split_ratios)


def run_experiment(config: ExperimentConfig) -> ExperimentBundle:
    """Full pipeline; writes the report bundle under config.output_dir."""
    [outcome] = calibrate_budgets(config, _windows(config), [config.risk.epsilon])
    selection, scale_result, batches = outcome.selection, outcome.budget_scale, outcome.batches

    scored = {m: subsets(b) for m, b in batches.items()}
    safety = {m: {s: safety_report(b) for s, b in subs.items()} for m, subs in scored.items()}
    adm = {m: {s: admission_mod.simulate(b, config.admission_b) for s, b in subs.items()}
           for m, subs in scored.items()}

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = ExperimentBundle(config, selection, scale_result, safety, adm, out)
    _write_json(out / "manifest.json", {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    _write_json(out / "config.json", config_dict(config))
    _write_json(out / "selection.json", {
        "quantile_selection": selection.to_dict(),
        "budget_scale": asdict(scale_result) if scale_result else None,
    })
    _write_json(out / "reports.json", {
        "methods": {
            m: {"safety": _nested(safety[m]), "admission": _nested(adm[m])}
            for m in sorted(safety)
        },
    })
    emit_report(out, safety, adm)
    return bundle


@dataclass
class FrontierRow:
    method: str
    epsilon: float
    control: float
    over_rate: float
    mae: float
    mpe: float
    p95_pos_err: float


def _sweep(epsilons) -> list[float]:
    """The budget values as floats, each in (0, 1), strictly ascending."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise EmptySweep("no budget values to sweep")
    if any(not 0.0 < e < 1.0 for e in eps):
        raise ValueError("budget values must lie in (0, 1)")
    if any(a >= b for a, b in zip(eps, eps[1:])):
        raise ValueError("budget values must be sorted ascending, without repeats")
    return eps


def run_frontier(config: ExperimentConfig, epsilons) -> list[FrontierRow]:
    """Re-calibrate per budget value, reusing trained models across budgets."""
    eps = _sweep(epsilons)
    rows: list[FrontierRow] = []
    for outcome in calibrate_budgets(config, _windows(config), eps):
        controls = {METHOD_POINT: 1.0, METHOD_SAFE_QUANTILE: outcome.selection.tau_star}
        if outcome.budget_scale is not None:
            controls[METHOD_BUDGET_SCALE] = outcome.budget_scale.c_star
        for method, batch in outcome.batches.items():
            rep = safety_report(batch)
            rows.append(FrontierRow(method, outcome.epsilon, float(controls[method]),
                                    rep.over_rate, rep.mae, rep.mpe, rep.p95_pos_err))

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out, "frontier", _FRONTIER_COLUMNS, [astuple(r) for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

_LONG_COLUMNS = ("method", "split", "subset", "metric", "value")
_FRONTIER_COLUMNS = tuple(f.name for f in fields(FrontierRow))


def _nested(reports: dict) -> dict:
    """The "all" report's fields, with every subset's fields under "subsets"."""
    return {**asdict(reports["all"]), "subsets": {name: asdict(r) for name, r in reports.items()}}


def long_rows(
    safety: dict[str, dict[str, SafetyReport]], admission: dict[str, dict[str, AdmissionReport]]
) -> list[tuple]:
    """(method, split, subset, metric, value) rows from per-method, per-subset test reports."""
    rows: list[tuple] = []
    for method in (m for m in _METHOD_ORDER if m in safety):
        for subset in safety[method]:
            for report, metrics in ((safety[method][subset], METRIC_NAMES),
                                    (admission[method][subset], ADMISSION_METRICS)):
                rows.extend((method, "test", subset, metric, report.metric(metric)) for metric in metrics)
    return rows


def emit_report(
    bundle_dir, safety: dict[str, dict[str, SafetyReport]], admission: dict[str, dict[str, AdmissionReport]]
) -> list[Path]:
    """Write the long-format metric table as CSV and JSON; returns both paths."""
    return _write_table(Path(bundle_dir), "metrics_long", _LONG_COLUMNS, long_rows(safety, admission))


def _write_table(out: Path, stem: str, columns: tuple[str, ...], rows: list[tuple]) -> list[Path]:
    """Write rows as stem.csv (strings as-is, numbers as repr(float)) and stem.json."""
    csv_path, json_path = out / f"{stem}.csv", out / f"{stem}.json"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in row] for row in rows)
    _write_json(json_path, [dict(zip(columns, row)) for row in rows])
    return [csv_path, json_path]


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    schema = {}
    for kv in args.schema or []:
        name, sep, column = kv.partition("=")
        if not sep:
            raise ConfigError(f"--schema: expected FIELD=COLUMN, got {kv!r}")
        schema[name] = column
    trace = data_mod.ingest_csv(args.csv, schema or None)
    data_mod.check_timestamp_gaps(trace)
    print(f"trace {trace.name}: {len(trace)} rows, "
          f"aux columns: {', '.join(trace.aux_keys) or 'none'}")
    print(f"throughput Mbps: min {trace.throughput.min():.3f}, "
          f"mean {trace.throughput.mean():.3f}, max {trace.throughput.max():.3f}")
    if args.output:
        data_mod.write_trace_csv(trace, args.output)
        print(f"normalized trace written to {args.output}")
    return 0


def _cmd_synth(args) -> int:
    config = load_config(args.config, seed=args.seed)
    if config.dataset.kind != "synthetic":
        raise ConfigError("synth requires a config with dataset.kind: synthetic")
    trace = data_mod.generate_synthetic(config.dataset)
    data_mod.write_trace_csv(trace, args.output)
    print(f"synthetic trace of length {len(trace)} written to {args.output}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config, seed=args.seed, output_dir=args.output, epsilon=args.epsilon)
    bundle = run_experiment(config)
    sel = bundle.selection
    print(f"selected quantile {sel.tau_star:.4f} "
          f"(feasible={sel.feasible}, trainings={sel.n_trainings})")
    if bundle.budget_scale is not None:
        print(f"budget-scale factor {bundle.budget_scale.c_star:.3f} "
              f"(feasible={bundle.budget_scale.feasible})")
    for method in _METHOD_ORDER:
        if method in bundle.safety:
            rep = bundle.safety[method]["all"]
            print(f"{method}: test mae {rep.mae:.3f}, over_rate {rep.over_rate:.3f}, "
                  f"mpe {rep.mpe:.3f}, p95_pos_err {rep.p95_pos_err:.3f}")
    print(f"bundle written to {bundle.output_dir}")
    return 0


def _cmd_frontier(args) -> int:
    config = load_config(args.config, seed=args.seed, output_dir=args.output)
    epsilons = list(DEFAULT_EPSILONS)
    if args.epsilons is not None:
        epsilons = _build(f"--epsilons {args.epsilons}", _sweep, epsilons=args.epsilons.split(","))
    rows = run_frontier(config, epsilons)
    for row in rows:
        print(f"eps={row.epsilon:.2f} {row.method}: control={row.control:.4f} "
              f"over_rate={row.over_rate:.3f} mae={row.mae:.3f}")
    print(f"frontier written to {config.output_dir}")
    return 0


def _cmd_inspect(args) -> int:
    path = Path(args.bundle) / "selection.json"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        sel = doc["quantile_selection"]
        lines = [
            f"boundary: [{sel['boundary'][0]:.4f}, {sel['boundary'][1]:.4f}]",
            f"tau_star: {sel['tau_star']:.4f}  feasible: {sel['feasible']}  "
            f"fallback: {sel['fallback_used']}  trainings: {sel['n_trainings']}",
            "evaluations (tau, mae, over_rate):",
        ]
        lines.extend(f"  {ev['tau']:.4f}  {ev['mae']:.4f}  {ev['over_rate']:.4f}" for ev in sel["evaluations"])
        scale = doc.get("budget_scale")
        if scale:
            lines.append(f"budget-scale factor: {scale['c_star']:.3f}  feasible: {scale['feasible']}")
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} is malformed: {type(exc).__name__} {exc}") from exc
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskcast",
        description="Risk-budgeted safe throughput forecasting experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a trace CSV and print a summary")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", nargs="*", metavar="FIELD=COLUMN")
    p.add_argument("--output", default=None, help="write a normalized copy")
    p.set_defaults(func=_cmd_ingest, stage="ingest")

    p = sub.add_parser("synth", help="generate a synthetic trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_synth, stage="synth")

    p = sub.add_parser("run", help="run the full experiment pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--output", default=None, help="override the output directory")
    p.add_argument("--epsilon", type=float, default=None, help="override the risk budget")
    p.set_defaults(func=_cmd_run, stage="run")

    p = sub.add_parser("frontier", help="sweep the risk budget and tabulate the frontier")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--epsilons", default=None, help="comma-separated budgets, ascending")
    p.set_defaults(func=_cmd_frontier, stage="frontier")

    p = sub.add_parser("inspect", help="print a saved selection report")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=_cmd_inspect, stage="inspect")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RiskcastError as exc:
        print(f"error [{args.stage}]: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error [{args.stage}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
