from __future__ import annotations

import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import riskcast.backbone
import riskcast.calibration
from riskcast.cli import (
    _BACKBONE_FIXED,
    _BACKBONE_KEYS,
    _DATASET_KEYS,
    _RISK_KEYS,
    _TOP_KEYS,
    _keys,
    DEFAULT_EPSILONS,
    calibrate_budgets,
    ExperimentConfig,
    config_dict,
    config_from_dict,
    config_hash,
    emit_report,
    load_config,
    long_rows,
    main,
    run_experiment,
    run_frontier,
    stage_seed,
)
from riskcast.admission import AdmissionReport
from riskcast.calibration import QuantileEvaluator, budget_scale_search, run_selection
from riskcast.data import CyclicScaleNoise, GaussianNoise, WindowedDataset, make_windows, generate_synthetic
from riskcast.errors import EmptySweep, EvaluatorFailure
from riskcast.metrics import SafetyReport

BASE_CONFIG = {
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
    "backbone": {"kind": "boosted_trees", "n_trees": 20, "max_depth": 3, "min_samples_leaf": 40},
    "baselines": ["point", "budget_scale"],
    "admission_b": 10.0,
    "seed": 13,
}


SYNTH = "dataset: {kind: synthetic, length: 100, base_level: 10.0}"
ROOT = Path(__file__).resolve().parents[1]
forking = pytest.mark.skipif(sys.platform != "linux", reason="columns are fitted on forked workers on Linux only")


def write_config(tmp_path, overrides=None, name="config.yaml"):
    raw = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    raw.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestConfig:
    def test_defaults(self):
        config = config_from_dict({"dataset": {"kind": "synthetic", "length": 100, "base_level": 10.0}})
        assert config.history == 75 and config.horizon == 15
        assert config.risk.epsilon == 0.35
        assert config.risk.tau_min == 0.15 and config.risk.tau_max == 0.40
        assert config.risk.delta == 0.05 and config.risk.grid_size == 5
        assert config.backbone.n_trees == 200

    @pytest.mark.parametrize("path", ["configs/synthetic-demo.yaml", "bench/paper_shape.yaml",
                                      "configs/paper-default.yaml"], ids=["demo", "paper_shape", "paper_default"])
    def test_shipped_configs_name_the_one_backbone_kind(self, path):
        # And the one subsample: both are fixed keys, which config.json leaves out.
        raw = yaml.safe_load((ROOT / path).read_text())
        fixed = {key: raw["backbone"][key] for key in _BACKBONE_FIXED}
        assert fixed == {"kind": "boosted_trees", "subsample": 1.0}
        config = load_config(str(ROOT / path))
        assert not set(_BACKBONE_FIXED) & set(config_dict(config)["backbone"])

    def test_seed_override_re_derives_stage_seeds(self, tmp_path):
        path = write_config(tmp_path)
        a = load_config(path)
        b = load_config(path, seed=99)
        assert b.seed == 99
        assert b.backbone.seed == stage_seed(99, "backbone")
        assert a.backbone.seed != b.backbone.seed
        assert b.dataset.seed == stage_seed(99, "data")

    def test_epsilon_and_output_overrides(self, tmp_path):
        path = write_config(tmp_path)
        config = load_config(path, epsilon=0.42, output_dir="elsewhere")
        assert config.risk.epsilon == 0.42
        assert config.output_dir == "elsewhere"

    def test_hash_tracks_semantics_not_output_dir(self, tmp_path):
        base = load_config(write_config(tmp_path))
        moved = load_config(write_config(tmp_path, {"output_dir": "other"}, name="b.yaml"))
        reseeded = load_config(write_config(tmp_path, {"seed": 14}, name="c.yaml"))
        rebudgeted = load_config(write_config(tmp_path, {"risk": {"epsilon": 0.30}}, name="d.yaml"))
        assert config_hash(base) == config_hash(moved)
        assert config_hash(base) != config_hash(reseeded)
        assert config_hash(base) != config_hash(rebudgeted)

    @pytest.mark.parametrize("source", [
        "configs/synthetic-demo.yaml",
        "bench/paper_shape.yaml",
        "configs/paper-default.yaml",
        BASE_CONFIG,
        {"dataset": {"kind": "csv", "path": "trace.csv", "schema": {"throughput": "rate"}, "name": "site"},
         "risk": {"lambda": 250, "M": 4}},
        {"dataset": {"kind": "synthetic", "length": 500, "base_level": 80, "noise": None}},
        {"dataset": {"kind": "synthetic", "length": 500, "base_level": 80,
                     "noise": {"kind": "gaussian", "sigma": 12}}},
        {"dataset": {"kind": "synthetic", "length": 500, "base_level": 80, "noise_model": {
            "kind": "cyclic_scale", "base": {"kind": "uniform", "half_width": 9.5}, "period": 900,
            "depth": 0.3}}},
    ], ids=["demo", "paper_shape", "paper_default", "uniform", "csv", "no-noise", "gaussian", "cyclic-uniform"])
    def test_config_json_reads_back_as_the_same_config(self, source):
        config = load_config(str(ROOT / source)) if isinstance(source, str) else config_from_dict(source)
        written = json.loads(json.dumps(config_dict(config)))
        assert config_from_dict({**written, "output_dir": config.output_dir}) == config


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = load_config(write_config(tmp), output_dir=str(tmp / "out"))
    return run_experiment(config)


class TestRunExperiment:
    def test_writes_bundle_files(self, bundle):
        for name in ("manifest.json", "config.json", "selection.json", "reports.json",
                     "metrics_long.csv", "metrics_long.json"):
            assert (bundle.output_dir / name).exists()

    def test_methods_present(self, bundle):
        assert set(bundle.safety) == {"point", "budget_scale", "safe_quantile"}
        assert set(bundle.admission) == {"point", "budget_scale", "safe_quantile"}

    def test_selected_model_is_feasible_on_calibration(self, bundle):
        sel = bundle.selection
        assert sel.feasible
        chosen = next(e for e in sel.fine_grid if e.tau == sel.tau_star)
        assert chosen.over_rate <= 0.35

    def test_long_table_matches_reports(self, bundle):
        with open(bundle.output_dir / "metrics_long.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "split", "subset", "metric", "value"]
        by_key = {(r[0], r[2], r[3]): float(r[4]) for r in rows[1:]}
        assert by_key[("safe_quantile", "all", "mae")] == bundle.safety["safe_quantile"]["all"].mae
        assert by_key[("point", "p30", "over_rate")] == (
            bundle.safety["point"]["p30"].over_rate
        )
        assert by_key[("budget_scale", "p10", "mean_dropped")] == (
            bundle.admission["budget_scale"]["p10"].mean_dropped
        )

    def test_rerun_from_config_json_repeats_the_run(self, bundle, tmp_path):
        out = tmp_path / "rerun"
        assert main(["run", "--config", str(bundle.output_dir / "config.json"), "--output", str(out)]) == 0
        for name in ("selection.json", "reports.json", "metrics_long.csv", "config.json"):
            assert (out / name).read_bytes() == (bundle.output_dir / name).read_bytes(), name

    def test_old_config_json_naming_subsample_repeats_the_run(self, bundle, tmp_path):
        # Bundles written while subsample was an option record it as 1.0.
        old = json.loads((bundle.output_dir / "config.json").read_text())
        old["backbone"]["subsample"] = 1.0
        path, out = tmp_path / "config.json", tmp_path / "rerun"
        path.write_text(json.dumps(old))
        assert main(["run", "--config", str(path), "--output", str(out)]) == 0
        for name in ("selection.json", "reports.json", "metrics_long.csv", "config.json"):
            assert (out / name).read_bytes() == (bundle.output_dir / name).read_bytes(), name

    def test_a_failed_fine_grid_fit_fails_with_stage(self, bundle, tmp_path, monkeypatch, capsys):
        # The middle of a five-level fine grid is the bracket's midpoint,
        # which bisection stopped short of evaluating.
        lo, hi = bundle.selection.boundary
        assert lo < hi and len(bundle.selection.fine_grid) == 5
        failing = bundle.selection.fine_grid[2].tau
        train = riskcast.calibration.train_quantile_model

        def fit(samples, tau, params, workers=None):
            if tau == failing:
                raise RuntimeError("fit failed")
            return train(samples, tau, params, workers=workers)

        monkeypatch.setattr(riskcast.calibration, "train_quantile_model", fit)
        config = bundle.output_dir / "config.json"
        assert main(["run", "--config", str(config), "--output", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error [run]: candidate evaluation failed at tau={failing}: "
                                "RuntimeError: fit failed\n")

    def test_csv_json_reports_agree(self, bundle):
        with open(bundle.output_dir / "metrics_long.json") as fh:
            json_rows = json.load(fh)
        with open(bundle.output_dir / "metrics_long.csv", newline="") as fh:
            csv_rows = list(csv.reader(fh))[1:]
        assert len(json_rows) == len(csv_rows)
        for jr, cr in zip(json_rows, csv_rows):
            assert [jr["method"], jr["split"], jr["subset"], jr["metric"]] == cr[:4]
            assert jr["value"] == float(cr[4])


class TestZeroNoise:
    def test_constant_trace_is_exactly_learned(self, tmp_path):
        path = write_config(tmp_path, {
            "dataset": {"kind": "synthetic", "length": 800, "base_level": 120.0,
                        "handover_drop": 0.0, "noise": {"kind": "none"}},
            "backbone": {"n_trees": 5, "max_depth": 2, "min_samples_leaf": 20},
        })
        bundle = run_experiment(load_config(path, output_dir=str(tmp_path / "out")))
        for reports in bundle.safety.values():
            report = reports["all"]
            assert report.mae < 1e-9
            assert report.over_rate == 0.0
        assert bundle.selection.feasible
        assert bundle.selection.tau_star == 0.40  # whole interval safe


class TestProtocolSeparation:
    def test_test_split_never_influences_calibration(self, tmp_path):
        config = load_config(write_config(tmp_path), output_dir=str(tmp_path / "out"))
        trace = generate_synthetic(config.dataset)
        full = make_windows(trace, config.history, config.horizon, config.split_ratios)
        # The same windows with the test partition dropped.
        end = full.cal_end
        truncated = WindowedDataset(np.asarray(full.X[:end]), full.Y[:end].copy(), full.origin_index[:end].copy(),
                                    full.layout, full.history, full.horizon, full.train_end, end)
        assert len(truncated.test) == 0

        results = []
        for ds in (full, truncated):
            from riskcast.backbone import Workers, train_point_model
            from riskcast.metrics import PredictionBatch

            with Workers(ds.train, ds.calibration) as workers:
                evaluator = QuantileEvaluator(workers, config.backbone)
                penalty = 1000.0 * float(np.mean(ds.train.Y))
                sel = run_selection(config.risk, evaluator, penalty=penalty)
                pm = train_point_model(ds.train, config.backbone, workers=workers)
            cal_b = PredictionBatch(pm.predict(ds.calibration.X, ds.calibration.layout), ds.calibration.Y)
            scale = budget_scale_search(cal_b, config.risk.epsilon)
            results.append((sel.tau_star, scale.c_star))
        assert results[0] == results[1]


class TestCalibrateBudgets:
    def test_bins_the_training_split_once(self, tmp_path, monkeypatch):
        shapes = []
        bin_features = riskcast.backbone._bin_features
        monkeypatch.setattr(riskcast.backbone, "_bin_features",
                            lambda X: shapes.append(X.shape) or bin_features(X))
        config = load_config(write_config(tmp_path))
        dataset = make_windows(generate_synthetic(config.dataset),
                               config.history, config.horizon, config.split_ratios)
        outcomes = calibrate_budgets(config, dataset, [0.25, 0.35])
        quantile_fits = sum(o.selection.n_trainings for o in outcomes)
        assert quantile_fits >= 2  # plus the point model, all on one training split
        assert shapes == [dataset.train.X.shape]

    @staticmethod
    def dataset(config):
        return make_windows(generate_synthetic(config.dataset), config.history, config.horizon, config.split_ratios)

    @forking
    @pytest.mark.parametrize("epsilons", [[0.35], [0.25, 0.35]], ids=["one-budget", "two-budgets"])
    def test_forks_one_pool_per_call(self, tmp_path, monkeypatch, pools, epsilons):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = load_config(write_config(tmp_path))
        outcomes = calibrate_budgets(config, self.dataset(config), epsilons)
        assert sum(o.selection.n_trainings for o in outcomes) >= 2  # plus the point model
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @forking
    def test_a_failed_fit_leaves_no_process(self, tmp_path, monkeypatch, pools):
        # Patched before the pool forks, so the workers inherit the patch.
        fit = riskcast.backbone._fit_boosted_column

        def failing(binned, y, tau, params):
            if tau == 0.40:  # tau_max, which every search evaluates
                raise RuntimeError("fit failed")
            return fit(binned, y, tau, params)

        monkeypatch.setattr(riskcast.backbone, "_fit_boosted_column", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = load_config(write_config(tmp_path))
        with pytest.raises(EvaluatorFailure, match="tau=0.4: RuntimeError: fit failed"):
            calibrate_budgets(config, self.dataset(config), [0.35])
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @forking
    @pytest.mark.parametrize("command, dies_in", [("run", "point"), ("frontier", "quantile")])
    def test_a_killed_worker_fails_with_stage(self, tmp_path, monkeypatch, capsys, command, dies_in):
        caller = os.getpid()
        fit = riskcast.backbone._fit_boosted_column

        def dying(binned, y, tau, params):
            if os.getpid() != caller and (tau is None) == (dies_in == "point"):
                os._exit(1)
            return fit(binned, y, tau, params)

        monkeypatch.setattr(riskcast.backbone, "_fit_boosted_column", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        argv = [command, "--config", write_config(tmp_path), "--output", str(tmp_path / "out")]
        if command == "frontier":
            argv += ["--epsilons", "0.25,0.35"]
        assert main(argv) == 2
        failed = {"point": "point model fit failed", "quantile": "candidate evaluation failed at tau=0.15"}
        assert capsys.readouterr().err.startswith(f"error [{command}]: {failed[dies_in]}: BrokenProcessPool: ")
        assert multiprocessing.active_children() == []


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(load_config(path, output_dir=str(out_a)))
        run_experiment(load_config(path, output_dir=str(out_b)))
        for name in ("metrics_long.csv", "metrics_long.json", "reports.json", "selection.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestFrontier:
    @pytest.mark.parametrize("baselines", [
        [],
        ["point"],
        ["budget_scale"],
        ["point", "budget_scale"],
    ], ids=["none", "point", "budget_scale", "point+budget_scale"])
    def test_rows_and_consistency_with_run(self, tmp_path, baselines):
        path = write_config(tmp_path, {"baselines": baselines})
        config = load_config(path, output_dir=str(tmp_path / "out"))
        rows = run_frontier(config, [0.35])
        assert [r.method for r in rows] == [*baselines, "safe_quantile"]
        bundle = run_experiment(config)
        by_method = {r.method: r for r in rows}
        assert set(by_method) == set(bundle.safety)
        for method, reports in bundle.safety.items():
            assert by_method[method].over_rate == reports["all"].over_rate
            assert by_method[method].mae == reports["all"].mae
        assert by_method["safe_quantile"].control == bundle.selection.tau_star
        if "budget_scale" in baselines:
            assert by_method["budget_scale"].control == bundle.budget_scale.c_star
        else:
            assert bundle.budget_scale is None
        if "point" in baselines:
            assert by_method["point"].control == 1.0

    def test_sweep_files(self, tmp_path):
        config = load_config(write_config(tmp_path), output_dir=str(tmp_path / "out"))
        rows = run_frontier(config, [0.30, 0.40])
        assert len(rows) == 6
        assert (tmp_path / "out" / "frontier.csv").exists()
        assert (tmp_path / "out" / "frontier.json").exists()

    def test_empty_sweep(self, tmp_path):
        config = load_config(write_config(tmp_path), output_dir=str(tmp_path / "out"))
        with pytest.raises(EmptySweep):
            run_frontier(config, [])

    def test_unsorted_sweep_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path), output_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError):
            run_frontier(config, [0.4, 0.3])

    def test_default_epsilons(self):
        assert DEFAULT_EPSILONS == (0.30, 0.35, 0.40, 0.45, 0.50)


class TestCommands:
    def test_run_and_inspect(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--output", str(out)]) == 0
        assert main(["inspect", "--bundle", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "tau_star" in captured

    def test_synth_then_ingest(self, tmp_path, capsys):
        path = write_config(tmp_path)
        trace_csv = tmp_path / "trace.csv"
        assert main(["synth", "--config", path, "--output", str(trace_csv)]) == 0
        assert main(["ingest", "--csv", str(trace_csv)]) == 0
        assert "rows" in capsys.readouterr().out

    @pytest.mark.parametrize("text, key", [
        ("dataset: {kind: nope}", "nope"),
        (f"{SYNTH}\nbackbone: {{n_tree: 3}}", "n_tree"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0, noise: {kind: gaussian}}", "sigma"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0, noise: {kind: uniform}}", "half_width"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0, noise: {kind: cyclic_scale}}", "base"),
        (f"{SYNTH}\nrisk: {{epsilom: 0.05}}", "epsilom"),
        (f"{SYNTH}\nHh: 3", "Hh"),
        (f"{SYNTH}\nadmision_b: 20", "admision_b"),
        ("dataset: {kind: synthetic, lenght: 100, length: 100, base_level: 10.0}", "lenght"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0,\n"
         "          noise: {kind: gaussian, sigma: 3, sigmaa: 3}}", "sigmaa"),
        (f"{SYNTH}\nbackbone: 5", "backbone"),
        (f"{SYNTH}\nrisk: 0.3", "risk"),
        ("dataset: [1, 2]", "dataset"),
        (f"{SYNTH}\nrisk: {{M: null}}", "M"),
        (f"{SYNTH}\nbackbone: {{n_trees: '40'}}", "n_trees"),
        (f"{SYNTH}\nbackbone: {{kind: linear}}", "backbone.kind"),
        (f"{SYNTH}\nbackbone: {{subsample: 0.8}}", "backbone.subsample: the only subsample is 1.0, got 0.8"),
        (f"{SYNTH}\nbackbone: {{steps: 10}}", "unknown backbone keys: ['steps']"),
        (f"{SYNTH}\nbaselines: [[1]]", "baselines"),
        (f"{SYNTH}\nadmission_b: 0", "admission_b"),
        (f"{SYNTH}\nadmission_b: -2.5", "admission_b"),
        (f"{SYNTH}\nadmission_b: .nan", "admission_b"),
        (f"{SYNTH}\nadmission_b: .inf", "admission_b"),
        (f"{SYNTH}\nL: 0", "config.L"),
        (f"{SYNTH}\nH: 0", "config.H"),
        (f"{SYNTH}\nsplit_ratios: [0.5, 0.5]", "split_ratios"),
        (f"{SYNTH}\nsplit_ratios: [0.8, 0.3, -0.1]", "split_ratios"),
        (f"{SYNTH}\nsplit_ratios: [0.5, 0.2, 0.2]", "split_ratios"),
        ("dataset: {kind: csv, path: trace.csv, name: [1, 2]}", "dataset.name"),
        (f"{SYNTH}\nL: true", "config.L"),
        (f"{SYNTH}\nseed: 1.9", "config.seed"),
        ("dataset: {kind: synthetic, length: 100.7, base_level: 10.0}", "dataset.length"),
        (f"{SYNTH}\nrisk: {{M: 5.9}}", "risk.M"),
        (f"{SYNTH}\nH: 2.5", "config.H"),
        (f"{SYNTH}\nrisk: {{epsilon: '0.3'}}", "risk.epsilon"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0, noise: {kind: gaussian, sigma: '38'}}",
         "noise.sigma"),
        (f"{SYNTH}\nbackbone: {{n_trees: true}}", "backbone.n_trees"),
        (f"{SYNTH}\nbackbone: {{learning_rate: true}}", "backbone.learning_rate"),
        (f"{SYNTH}\nrisk: {{delta: .nan}}", "risk.delta"),
        (f"{SYNTH}\nrisk: {{lambda: .nan}}", "risk.lambda"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0, noise: {kind: gaussian, sigma: .nan}}",
         "noise.sigma"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0, noise: {kind: uniform, half_width: .nan}}",
         "noise.half_width"),
        ("dataset: {kind: synthetic, length: 100, base_level: 10.0,\n"
         "          noise: {kind: cyclic_scale, base: {kind: uniform, half_width: 1.0}, period: .nan}}",
         "noise.period"),
        ("dataset: {kind: synthetic, length: 100, base_level: .nan}", "dataset.base_level"),
        ("dataset: {kind: synthetic, length: 100, base_level: .inf}", "dataset.base_level"),
        (f"dataset: {{kind: synthetic, length: 100, base_level: 1{'0' * 400}}}", "dataset.base_level"),
    ], ids=["dataset-kind", "backbone-key", "gaussian-sigma", "uniform-half-width", "cyclic-base",
            "risk-key", "top-key", "top-key-admission", "dataset-key", "noise-key",
            "backbone-not-mapping", "risk-not-mapping", "dataset-not-mapping", "risk-null-value",
            "backbone-string-value", "backbone-kind-linear", "backbone-subsample-0.8", "backbone-steps-key",
            "baselines-list-value",
            "admission-b-zero", "admission-b-negative", "admission-b-nan", "admission-b-inf",
            "history-zero", "horizon-zero",
            "split-ratios-length", "split-ratios-negative", "split-ratios-sum", "dataset-name-list",
            "history-bool", "seed-float", "length-float", "grid-size-float", "horizon-float",
            "epsilon-string", "sigma-string", "n-trees-bool", "learning-rate-bool", "delta-nan", "lambda-nan",
            "sigma-nan", "half-width-nan", "period-nan", "base-level-nan", "base-level-inf",
            "base-level-int-beyond-float"])
    def test_run_with_bad_config_fails_with_stage(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text + "\n")
        code = main(["run", "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error [run]" in err
        assert key in err

    @pytest.mark.parametrize("argv, flag", [
        (["run", "--epsilon", "1.5"], "--epsilon 1.5"),
        (["run", "--epsilon", "nan"], "--epsilon nan"),
        (["frontier", "--epsilons", "0.3,abc"], "--epsilons 0.3,abc"),
        (["frontier", "--epsilons", "0.3,1.2"], "--epsilons 0.3,1.2"),
        (["frontier", "--epsilons", "0.4,0.3"], "--epsilons 0.4,0.3"),
        (["frontier", "--epsilons", "0.3,0.3"], "--epsilons 0.3,0.3"),
        (["frontier", "--epsilons", ""], "--epsilons "),
        (["ingest", "--csv", "trace.csv", "--schema", "timestamp"], "--schema"),
    ], ids=["epsilon-out-of-range", "epsilon-nan", "epsilons-not-a-number", "epsilons-out-of-range",
            "epsilons-unsorted", "epsilons-repeated", "epsilons-empty", "schema-without-equals"])
    def test_bad_flag_value_fails_with_stage(self, tmp_path, capsys, argv, flag):
        command, *rest = argv
        if command != "ingest":
            rest += ["--config", write_config(tmp_path)]
        code = main([command, *rest])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error [{command}]: {flag}")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @staticmethod
    def write_gap_csv(tmp_path):
        """120 rows, with timestamps jumping from 59 to 70 before row 60."""
        trace_csv = tmp_path / "gap.csv"
        rows = [f"{t},{100.0 + t % 7}" for t in [*range(60), *range(70, 130)]]
        trace_csv.write_text("timestamp,throughput_mbps\n" + "\n".join(rows) + "\n")
        return trace_csv

    def test_ingest_csv_with_timestamp_gap_fails_with_stage(self, tmp_path, capsys):
        code = main(["ingest", "--csv", str(self.write_gap_csv(tmp_path))])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error [ingest]: timestamp gap before row 60: step 11")
        assert captured.out == ""

    def test_ingest_timestamps_an_int64_difference_would_wrap_on(self, tmp_path, capsys):
        trace_csv = tmp_path / "wide.csv"
        trace_csv.write_text("timestamp,throughput_mbps\n-9000000000000000000,5\n9000000000000000000,7\n")
        assert main(["ingest", "--csv", str(trace_csv)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"trace {trace_csv}: 2 rows")
        assert captured.err == ""

    def test_ingest_header_only_csv_fails_with_stage(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,throughput_mbps\n")
        code = main(["ingest", "--csv", str(empty)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error [ingest]: trace {empty} has no data rows")
        assert captured.out == ""

    @pytest.mark.parametrize("content, message", [
        (b"timestamp,throughput_mbps\n0,5\n1e30,5\n", "timestamp outside the 64-bit integer range (row 3,"),
        (b"timestamp,throughput_mbps\n0,5\n9223372036854775808,5\n",
         "timestamp outside the 64-bit integer range (row 3,"),
        (b"timestamp,throughput_mbps\n0,5\n1,\xff5\n", "is not UTF-8 text"),
        (b"timestamp,throughput_mbps\n0,1,5\n1,5\n", "3 cells under a header of 2 (row 2)"),
        (b"timestamp,throughput_mbps\n0,5\n1," + b"5" * 200_000 + b"\n", "field larger than field limit"),
    ], ids=["timestamp-1e30", "timestamp-beyond-int64", "invalid-utf8", "extra-cell", "huge-cell"])
    def test_ingest_corrupt_csv_fails_with_stage(self, tmp_path, capsys, content, message):
        trace_csv = tmp_path / "bad.csv"
        trace_csv.write_bytes(content)
        code = main(["ingest", "--csv", str(trace_csv)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error [ingest]: ")
        assert message in captured.err
        assert captured.out == ""

    def test_run_on_csv_with_timestamp_gap_fails_with_stage(self, tmp_path, capsys):
        trace_csv = self.write_gap_csv(tmp_path)
        bad = tmp_path / "gap.yaml"
        bad.write_text(f"dataset: {{kind: csv, path: {trace_csv}}}\nL: 4\nH: 2\n")
        code = main(["run", "--config", str(bad), "--output", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "error [run]" in captured.err
        assert "before row 60: step 11" in captured.err
        assert captured.out == ""

    def test_run_has_no_format_option(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--config", write_config(tmp_path), "--format", "json"])

    def test_report_command_is_removed(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["report", "--bundle", str(tmp_path)])

    def test_inspect_malformed_selection_fails_with_stage(self, tmp_path, capsys):
        self.check_inspect_fails(tmp_path, capsys, {"tau_star": 0.3}, "boundary")

    def test_inspect_null_boundary_fails_with_stage(self, tmp_path, capsys):
        self.check_inspect_fails(tmp_path, capsys, {"tau_star": 0.3, "boundary": None}, "NoneType")

    @staticmethod
    def check_inspect_fails(tmp_path, capsys, selection, fragment):
        (tmp_path / "selection.json").write_text(json.dumps(
            {"quantile_selection": selection, "budget_scale": None}
        ))
        code = main(["inspect", "--bundle", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error [inspect]" in captured.err
        assert fragment in captured.err
        assert captured.out == ""

    def test_missing_file_fails(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert code != 0

    def test_epsilon_override_changes_selection(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", path, "--output", str(out_a)]) == 0
        assert main(["run", "--config", path, "--output", str(out_b), "--epsilon", "0.05"]) == 0
        sel_a = json.loads((out_a / "selection.json").read_text())
        sel_b = json.loads((out_b / "selection.json").read_text())
        assert sel_a["quantile_selection"]["tau_star"] >= sel_b["quantile_selection"]["tau_star"]


class TestEmitReport:
    def test_absent_subsets_are_omitted_not_zero_filled(self):
        top = SafetyReport(mae=1.0, rmse=1.5, over_rate=0.2, mpe=0.5, p95_pos_err=2.0, n_elements=10)
        adm = AdmissionReport(mean_dropped=0.1, violation_rate=0.1, p95_dropped=1.0, n_slots=10)
        # no p30/p10 entries
        rows = long_rows({"safe_quantile": {"all": top}}, {"safe_quantile": {"all": adm}})
        subsets = {r[2] for r in rows}
        assert subsets == {"all"}

    def test_round_trip_values(self, tmp_path):
        config = load_config(write_config(tmp_path), output_dir=str(tmp_path / "out"))
        bundle = run_experiment(config)
        out = bundle.output_dir
        before = {name: (out / name).read_bytes() for name in ("metrics_long.csv", "metrics_long.json")}
        paths = emit_report(out, bundle.safety, bundle.admission)
        assert paths == [out / "metrics_long.csv", out / "metrics_long.json"]
        assert {p.name: p.read_bytes() for p in paths} == before
        with open(out / "metrics_long.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        parsed = {(r[0], r[2], r[3]): float(r[4]) for r in rows[1:]}
        assert parsed[("safe_quantile", "all", "p95_pos_err")] == (
            bundle.safety["safe_quantile"]["all"].p95_pos_err
        )


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import riskcast.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# Corrupted inputs: every one fails with a stage-named error, not a traceback
# ---------------------------------------------------------------------------

FUZZ_CONFIG = {
    "dataset": {"kind": "synthetic", "length": 120, "base_level": 50.0,
                "noise": {"kind": "cyclic_scale", "base": {"kind": "gaussian", "sigma": 3.0},
                          "period": 60.0}},
    "L": 4,
    "H": 2,
    "split_ratios": [0.5, 0.25, 0.25],
    "risk": {"epsilon": 0.3, "tau_min": 0.15, "tau_max": 0.4, "delta": 0.05, "M": 3},
    "backbone": {"n_trees": 2, "max_depth": 2, "learning_rate": 0.5, "min_samples_leaf": 5},
    "baselines": ["point"],
    "admission_b": 10.0,
    "seed": 3,
}
# Keys each config section accepts, by path from the top of the config.
FUZZ_SECTIONS = {
    (): _TOP_KEYS,
    ("risk",): _RISK_KEYS,
    ("backbone",): _BACKBONE_KEYS,
    ("dataset",): _DATASET_KEYS["synthetic"],
    ("dataset", "noise"): _keys(CyclicScaleNoise),
    ("dataset", "noise", "base"): _keys(GaussianNoise),
}
# Numeric fields; none of them takes a value that is not a number.
FUZZ_NUMBERS = [("L",), ("H",), ("admission_b",), ("seed",), ("risk", "epsilon"), ("risk", "tau_min"),
                ("risk", "tau_max"), ("risk", "delta"), ("risk", "M"), ("backbone", "n_trees"),
                ("backbone", "max_depth"), ("backbone", "learning_rate"), ("backbone", "min_samples_leaf"),
                ("backbone", "subsample"), ("dataset", "length"), ("dataset", "base_level"),
                ("dataset", "noise", "period"), ("dataset", "noise", "base", "sigma")]
# Integer fields; none of them takes a float.
FUZZ_INTEGERS = [("L",), ("H",), ("seed",), ("risk", "M"), ("backbone", "n_trees"), ("backbone", "max_depth"),
                 ("backbone", "min_samples_leaf"), ("dataset", "length")]
# Float fields; none of them takes NaN or an infinity.
FUZZ_FLOATS = [p for p in FUZZ_NUMBERS if p not in FUZZ_INTEGERS] + [
    ("risk", "lambda"), ("dataset", "diurnal_amplitude"), ("dataset", "handover_drop"),
    ("dataset", "noise", "depth")]
# Values outside each field's range.
FUZZ_OUT_OF_RANGE = {
    ("L",): st.integers(-5, 0) | st.integers(200, 10**6),
    ("H",): st.integers(-5, 0) | st.integers(200, 10**6),
    ("admission_b",): st.sampled_from([0.0, -1.0, float("nan"), float("inf")]),
    ("split_ratios",): st.lists(st.floats(-1.0, 1.0), max_size=5).filter(
        lambda r: len(r) != 3 or min(r) <= 0 or abs(sum(r) - 1.0) > 1e-6),
    ("risk", "epsilon"): st.floats(1.0, 5.0) | st.floats(-5.0, 0.0),
    ("risk", "M"): st.integers(-3, 1),
    ("backbone", "learning_rate"): st.floats(1.0, 5.0, exclude_min=True) | st.floats(-5.0, 0.0),
    ("backbone", "max_depth"): st.integers(-3, 0),
    ("dataset", "length"): st.integers(-3, 6),
    ("dataset", "noise", "base", "sigma"): st.floats(-50.0, 0.0, exclude_max=True),
}


NOT_NUMBERS = (st.none() | st.booleans() | st.text(max_size=6) | st.sampled_from(["40", "0.3", "1e3", "-2"])
               | st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,9}", fullmatch=True)
DROP = object()


def _replaced(doc, path: tuple, value):
    """A deep copy of the JSON document `doc` with the entry at `path` set to
    `value`, or deleted when `value` is DROP."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def broken_configs(draw):
    """FUZZ_CONFIG with one corruption that config checks or windowing reject."""
    kind = draw(st.sampled_from(["unknown_key", "not_mapping", "not_number", "not_integer", "not_finite",
                                 "out_of_range"]))
    if kind == "unknown_key":
        path = draw(st.sampled_from(sorted(FUZZ_SECTIONS)))
        key = draw(NAMES.filter(lambda k: k not in FUZZ_SECTIONS[path]))
        path, value = path + (key,), draw(st.integers() | st.text(max_size=4))
    elif kind == "not_mapping":
        path = draw(st.sampled_from([p for p in FUZZ_SECTIONS if p]))
        value = draw(st.integers() | st.floats() | st.text(min_size=1, max_size=4) | st.lists(st.integers()))
    elif kind == "not_number":
        path, value = draw(st.sampled_from(FUZZ_NUMBERS)), draw(NOT_NUMBERS)
    elif kind == "not_integer":
        path = draw(st.sampled_from(FUZZ_INTEGERS))
        value = draw(st.floats().filter(lambda x: not x.is_integer()))
    elif kind == "not_finite":
        path = draw(st.sampled_from(FUZZ_FLOATS))
        value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    else:
        path = draw(st.sampled_from(sorted(FUZZ_OUT_OF_RANGE)))
        value = draw(FUZZ_OUT_OF_RANGE[path])
    return _replaced(FUZZ_CONFIG, path, value)


FUZZ_SELECTION = {
    "quantile_selection": {
        "boundary": [0.2, 0.3], "tau_star": 0.25, "feasible": True, "fallback_used": False,
        "n_trainings": 5, "evaluations": [{"tau": 0.2, "mae": 1.5, "over_rate": 0.1}],
    },
    "budget_scale": {"c_star": 0.9, "feasible": True},
}
# Where inspect reads a number, and where it reads a non-empty container.
SELECTION_NUMBERS = [("quantile_selection", "boundary", 0), ("quantile_selection", "boundary", 1),
                     ("quantile_selection", "tau_star"), ("quantile_selection", "evaluations", 0, "tau"),
                     ("quantile_selection", "evaluations", 0, "mae"),
                     ("quantile_selection", "evaluations", 0, "over_rate"), ("budget_scale", "c_star")]
SELECTION_CONTAINERS = [("quantile_selection",), ("quantile_selection", "boundary"),
                        ("quantile_selection", "evaluations", 0)]


def _selection_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _selection_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _selection_paths(value, path + (i,))


@st.composite
def broken_selections(draw):
    """selection.json bytes that inspect cannot read: garbage, or the valid
    FUZZ_SELECTION with one key dropped or one value of the wrong kind."""
    kind = draw(st.sampled_from(["garbage", "drop", "not_number", "not_container"]))
    if kind == "garbage":
        return draw(st.binary(max_size=40))
    if kind == "drop":
        optional = ("budget_scale",)
        path = draw(st.sampled_from([p for p in _selection_paths(FUZZ_SELECTION)
                                     if p and isinstance(p[-1], str) and p != optional]))
        value = DROP
    elif kind == "not_number":
        path = draw(st.sampled_from(SELECTION_NUMBERS))
        # inspect formats a bool as a number, so bools are left out here.
        value = draw(NOT_NUMBERS.filter(lambda v: not isinstance(v, (bool, type(None))))
                     | st.integers(10**309, 10**320))
    else:
        path = draw(st.sampled_from(SELECTION_CONTAINERS))
        value = draw(st.none() | st.integers() | st.floats() | st.booleans())
    return json.dumps(_replaced(FUZZ_SELECTION, path, value)).encode()


FUZZ_TRACE = [(t, 100.0 + t % 7, 40.0 + t % 3) for t in range(30)]
TRACE_HEADER = "timestamp,throughput_mbps,elevation_deg"
INVALID_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


@st.composite
def broken_traces(draw):
    """The bytes of FUZZ_TRACE as a trace CSV, with one corruption that ingest rejects."""
    kind = draw(st.sampled_from(["blank", "not_number", "not_finite", "out_of_range", "extra_cell",
                                 "missing_cell", "duplicate", "out_of_order", "gap", "bad_bytes"]))
    rows = [[str(t), repr(tp), repr(elev)] for t, tp, elev in FUZZ_TRACE]
    r = draw(st.integers(1, len(rows) - 2))  # a row with neighbours on both sides
    column = draw(st.integers(0, 2))
    if kind == "blank":
        rows[r][column] = draw(st.sampled_from(["", " ", "\t"]))
    elif kind == "not_number":
        cell = st.characters(blacklist_characters=',"\r\n', blacklist_categories=["Cs"])
        rows[r][column] = draw(st.text(cell, min_size=1, max_size=6).filter(_not_a_number))
    elif kind == "not_finite":
        rows[r][column] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "-Infinity"]))
    elif kind == "out_of_range":
        column = draw(st.integers(0, 1))
        rows[r][column] = draw(st.sampled_from(["1e30", "-1e19", str(2**63), str(-2**63 - 1)]) if column == 0
                               else st.sampled_from(["-0.5", "-1e3", "-1"]))
    elif kind == "extra_cell":
        rows[r].append(draw(st.sampled_from(["5", "", "x"])))
    elif kind == "missing_cell":
        del rows[r][column]
    elif kind == "duplicate":
        rows[r][0] = rows[draw(st.integers(0, len(rows) - 1).filter(lambda i: i != r))][0]
    elif kind == "out_of_order":
        # Below its predecessor: on consecutive seconds it collides with an
        # earlier row, or, below the first, leaves a gap where it was.
        rows[r][0] = str(int(rows[r - 1][0]) - draw(st.integers(1, 50)))
    elif kind == "gap":
        if draw(st.booleans()):
            del rows[r]
        else:
            shift = draw(st.integers(1, 10**6))
            for row in rows[r:]:
                row[0] = str(int(row[0]) + shift)
    content = (TRACE_HEADER + "\n" + "".join(",".join(row) + "\n" for row in rows)).encode()
    if kind == "bad_bytes":
        at = draw(st.integers(0, len(content)))
        content = content[:at] + draw(st.sampled_from(INVALID_UTF8)) + content[at:]
    return content


class TestCorruptInputs:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=broken_configs())
    @example(raw=_replaced(FUZZ_CONFIG, ("dataset", "noise"), 0))  # was read as no noise
    @example(raw=_replaced(FUZZ_CONFIG, ("dataset", "length"), 6))  # one window: empty splits
    def test_broken_config_fails_before_training(self, tmp_path, capsys, raw):
        path = tmp_path / "broken.yaml"
        path.write_text(yaml.safe_dump({**raw, "output_dir": str(tmp_path / "out")}))
        with mock.patch.object(riskcast.backbone, "_train", side_effect=AssertionError("trained")):
            code = main(["run", "--config", str(path)])
        captured = capsys.readouterr()
        assert code in (2, 3)
        assert captured.err.startswith("error [run]: ")
        assert captured.out == ""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=broken_selections())
    @example(content=json.dumps(_replaced(FUZZ_SELECTION, ("quantile_selection", "tau_star"), 10**400))
             .encode())  # int too large for a float
    def test_broken_selection_fails_to_inspect(self, tmp_path, capsys, content):
        (tmp_path / "selection.json").write_bytes(content)
        code = main(["inspect", "--bundle", str(tmp_path)])
        captured = capsys.readouterr()
        assert code in (2, 3)
        assert captured.err.startswith("error [inspect]: ")
        assert captured.out == ""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=broken_traces())
    @example(content=f"{TRACE_HEADER}\n0,5,1\n1e30,5,1\n".encode())  # an OverflowError traceback
    @example(content=f"{TRACE_HEADER}\n0,5,1\n1,5,1,5\n".encode())  # read without a word
    def test_broken_trace_fails_to_ingest(self, tmp_path, capsys, content):
        trace_csv = tmp_path / "trace.csv"
        trace_csv.write_bytes(content)
        code = main(["ingest", "--csv", str(trace_csv)])
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert captured.err.startswith("error [ingest]: ")
        assert captured.out == ""
