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
import os
import sys
import time
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import ClassVar, get_args, get_origin, get_type_hints

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
    run_selection,
)
from .errors import ConfigError, RiskcastError
from .metrics import METRIC_NAMES, PredictionBatch, SafetyReport, safety_report, subsets

METHOD_POINT = "point"
METHOD_BUDGET_SCALE = "budget_scale"
METHOD_SAFE_QUANTILE = "safe_quantile"

DEFAULT_EPSILONS = (0.30, 0.35, 0.40, 0.45, 0.50)


def stage_seed(seed: int, stage: str) -> int:
    """Derive one stage's RNG seed from the top-level seed by keyed hashing."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's config; it checks its own ranges, so a config built in code
    is checked as one read from a file is. A rejected value raises
    ConfigError naming its YAML key. Every run scores both baselines."""

    baselines: ClassVar[tuple[str, ...]] = (METHOD_POINT, METHOD_BUDGET_SCALE)
    dataset: data_mod.CsvSource | data_mod.SyntheticSpec
    history: int = 75
    horizon: int = 15
    split_ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    risk: RiskBudgetConfig = field(default_factory=RiskBudgetConfig)
    backbone: BackboneParams = field(default_factory=BackboneParams)
    admission_b: float = 10.0
    seed: int = 0
    output_dir: str = "runs/experiment"

    def __post_init__(self) -> None:
        for key, value in (("L", self.history), ("H", self.horizon)):
            if not value >= 1:
                raise ConfigError(f"config.{key}: must be >= 1, got {value}")
        try:
            data_mod.check_split_ratios(self.split_ratios)
        except ValueError as exc:
            raise ConfigError(f"config.split_ratios: {exc}") from exc
        if not 0.0 < self.admission_b <= sys.float_info.max:
            raise ConfigError(f"config.admission_b: must be a finite number > 0, got {self.admission_b}")


# The fields that the YAML and config.json name otherwise.
_YAML_KEYS = {"history": "L", "horizon": "H", "grid_size": "M"}
# Keys that older configs and bundles name, each with the one value it can
# take: each is accepted with that value only, then dropped, so config.json
# leaves it out. Every tree is boosted and fits every training row, selection
# weighs no fallback penalty, and every run scores both baselines.
_FIXED = {"backbone.kind": "boosted_trees", "backbone.subsample": 1.0, "risk.lambda": None,
          "config.baselines": list(ExperimentConfig.baselines)}


# Annotations are strings (postponed evaluation): each class's are compiled once, into a dict callers only read.
_type_hints = cache(get_type_hints)


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


def _value(hint, value, name: str):
    """A config value that is not a section, read by its annotation `hint`:
    a tuple[...] from a list, a dict[str, str] from a mapping (null reading
    as empty), X | None also from null, and anything else as _exact reads
    it. A value that fails is reported as `name`."""
    args = get_args(hint)
    try:
        if value is None and type(None) in args:
            return None
        if get_origin(hint) is tuple:
            return tuple(_exact(item, args[0]) for item in _exact(value, list))
        if get_origin(hint) is dict:
            mapping = _exact({} if value is None else value, dict)
            return {_exact(key, args[0]): _exact(item, args[1]) for key, item in mapping.items()}
        return _exact(value, args[0] if args else hint)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _read(cls, raw, name: str, defaults: dict | None = None, /, **given):
    """cls built from its config section `raw`, a mapping (null reads as
    empty) that holds only cls's keys. A union of dataclasses is the member
    whose kind the section names, else the kind in `defaults`. Each init
    field not `given` is read under its YAML key. A dataclass, or a union
    of them, is read as a nested section whose missing kind is that of the
    field's default_factory (noise: none), anything else by _value. A
    missing field takes its `defaults` entry, else the dataclass default."""
    section, defaults = {} if raw is None else raw, defaults or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping, got {raw!r}")
    if get_args(cls):
        kinds = {member.kind: member for member in get_args(cls)}
        kind = _value(str, section["kind"], f"{name}.kind") if "kind" in section else defaults.get("kind")
        if kind is None:
            raise ConfigError(f"missing key 'kind' in {name}")
        if kind not in kinds:
            raise ConfigError(f"unknown {name} kind {kind!r}")
        cls = kinds[kind]
    unknown = set(section) - set(_keys(cls))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    hints = _type_hints(cls)
    for f in fields(cls):
        if not f.init or f.name in given:
            continue
        key, hint, args = _YAML_KEYS.get(f.name, f.name), hints[f.name], get_args(hints[f.name])
        if key not in section:
            if f.name in defaults:
                given[f.name] = defaults[f.name]
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing key {key!r} in {name}")
        elif is_dataclass(hint) or args and all(map(is_dataclass, args)):
            given[f.name] = _read(hint, section[key], key if name == "config" else f"{name}.{key}",
                                  {"kind": getattr(f.default_factory, "kind", None)})
        else:
            given[f.name] = _value(hint, section[key], f"{name}.{key}")
    return _build(name, cls, **given)


def _yaml(value) -> str:
    """value on one line, as YAML writes it: null, 0.8, [point]."""
    return yaml.dump(value, default_flow_style=True, width=float("inf")).removesuffix("...\n").strip()


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config that a YAML mapping or a config.json describes. A missing
    dataset.seed derives from the config's seed. Older spellings are read
    here, so that _read sees only the current schema: each _FIXED key is
    checked and dropped, and dataset.noise_model is read as dataset.noise."""
    raw = {key: dict(value) if isinstance(value, dict) else value for key, value in raw.items()}
    for name, only in _FIXED.items():
        section, key = name.split(".")
        values = raw if section == "config" else raw.get(section)
        if isinstance(values, dict) and key in values:  # a section that is not a mapping, _read reports
            value = values.pop(key)
            if isinstance(value, bool) or value != only:
                raise ConfigError(f"{name}: the only {key} is {_yaml(only)}, got {_yaml(value)}")
    spec = raw.get("dataset")
    if isinstance(spec, dict) and "noise_model" in spec:
        if "noise" in spec:
            raise ConfigError("dataset: names both 'noise' and 'noise_model', its older name; give one")
        spec["noise"] = spec.pop("noise_model")
    seed = _value(int, raw.get("seed", 0), "config.seed")
    dataset = _read(_type_hints(ExperimentConfig)["dataset"], raw.get("dataset"), "dataset",
                    {"seed": stage_seed(seed, "data")})
    return _read(ExperimentConfig, raw, "config", seed=seed, dataset=dataset)


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a key written twice in one mapping, as
    YAML requires, instead of keeping the last value."""

    def construct_mapping(self, node, deep=False):
        seen = []
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":  # a merged mapping's keys may be overridden
                key = self.construct_object(key_node, deep=True)
                if key in seen:
                    raise yaml.constructor.ConstructorError("while constructing a mapping", node.start_mark,
                                                            f"found duplicate key {key!r}", key_node.start_mark)
                seen.append(key)
        return super().construct_mapping(node, deep)


def load_config(
    path: str,
    seed: int | None = None,
    output_dir: str | None = None,
    epsilon: float | None = None,
) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    if seed is not None:
        # The derived dataset.seed follows the override; one explicit in the
        # file stays pinned.
        raw = {**raw, "seed": seed}
    config = config_from_dict(raw)
    if config.dataset.kind == "csv":  # so that config.json names the file read, from any directory
        config = replace(config, dataset=replace(config.dataset, path=os.path.join(os.getcwd(), config.dataset.path)))
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
    selection: SelectionResult
    budget_scale: BudgetScaleResult
    safety: dict[str, dict[str, SafetyReport]]  # method -> subset ("all", "p30", "p10") -> report
    admission: dict[str, dict[str, AdmissionReport]]
    output_dir: Path


@dataclass
class BudgetOutcome:
    """One budget's calibrated risk controls and the test batches they give."""

    epsilon: float
    selection: SelectionResult
    budget_scale: BudgetScaleResult
    batches: dict[str, PredictionBatch]


def calibrate_budgets(
    config: ExperimentConfig, dataset: data_mod.WindowedDataset, epsilons: list[float]
) -> list[BudgetOutcome]:
    """Calibrate both risk controls at each budget, then predict the test split.

    One evaluator serves every budget, so a level shared between budgets is
    trained once and predicted on the test split once; the point model is
    trained once and predicted once per split. One worker set fits every
    model and predicts it on the calibration split; it is shut down before
    the first test prediction.
    """
    train, cal, test = dataset.train, dataset.calibration, dataset.test
    with Workers(train, cal) as workers:
        evaluator = QuantileEvaluator(workers, config.backbone)
        point_model = train_point_model(workers, config.backbone)
        cal_point = PredictionBatch(point_model.calibration_preds, cal.Y)
        controls = [
            (e, run_selection(config.risk.with_epsilon(e), evaluator), budget_scale_search(cal_point, e))
            for e in epsilons
        ]

    # Test predictions are made only after every calibration decision: the
    # protocol guard that keeps test data out of risk control.
    test_point = point_model.predict(test.X, test.layout)
    test_safe = {}  # by model: budgets that select the same cached level share it
    for _, selection, _ in controls:
        if id(selection.model) not in test_safe:
            test_safe[id(selection.model)] = selection.model.predict(test.X, test.layout)
    return [
        BudgetOutcome(e, selection, scale, {
            METHOD_POINT: PredictionBatch(test_point, test.Y),
            METHOD_BUDGET_SCALE: PredictionBatch(test_point * scale.c_star, test.Y),
            METHOD_SAFE_QUANTILE: PredictionBatch(test_safe[id(selection.model)], test.Y),
        })
        for e, selection, scale in controls
    ]


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
    bundle = ExperimentBundle(selection, scale_result, safety, adm, out)
    _write_json(out / "manifest.json", {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    _write_json(out / "config.json", config_dict(config))
    _write_json(out / "selection.json", {
        "quantile_selection": selection.to_dict(),
        "budget_scale": asdict(scale_result),
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
        raise ValueError("no budget values to sweep")
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
        controls = {METHOD_POINT: 1.0, METHOD_BUDGET_SCALE: outcome.budget_scale.c_star,
                    METHOD_SAFE_QUANTILE: outcome.selection.tau_star}
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
    for method in safety:
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
    print(f"budget-scale factor {bundle.budget_scale.c_star:.3f} "
          f"(feasible={bundle.budget_scale.feasible})")
    for method, reports in bundle.safety.items():
        rep = reports["all"]
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
    try:  # a file that cannot be opened is an OSError, not a malformed bundle
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
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
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run the full experiment pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--output", default=None, help="override the output directory")
    p.add_argument("--epsilon", type=float, default=None, help="override the risk budget")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("frontier", help="sweep the risk budget and tabulate the frontier")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--epsilons", default=None, help="comma-separated budgets, ascending")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("inspect", help="print a saved selection report")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RiskcastError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
