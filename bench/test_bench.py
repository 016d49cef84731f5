"""Tests of the benchmark itself, on a tiny config so they take seconds."""

from __future__ import annotations

import json
import sys
import types

import pytest

import run
from spans import Span, Tracer, self_times

sys.path.insert(0, str(run.SRC))

TINY = """
dataset:
  kind: synthetic
  length: 700
  base_level: 230.0
  handover_period: 15
  handover_drop: 30.0
  noise_model: {kind: gaussian, sigma: 38.0}
L: 4
H: 2
split_ratios: [0.5, 0.25, 0.25]
risk: {epsilon: 0.35, tau_min: 0.15, tau_max: 0.40, delta: 0.05, M: 5, lambda: null}
backbone: {kind: boosted_trees, n_trees: 3, max_depth: 2, learning_rate: 0.5, min_samples_leaf: 10}
baselines: [point, budget_scale]
seed: 3
"""


@pytest.fixture
def tiny(tmp_path) -> dict[str, run.Workload]:
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY, encoding="utf-8")
    return {
        "run": run.Workload("tiny_run", "run", config),
        "frontier": run.Workload("tiny_frontier", "frontier", config, (0.25, 0.45)),
    }


def ledger_for(workload: run.Workload, seed: int = 5) -> run.Ledger:
    import riskcast.cli

    return run.Ledger(workload, riskcast.cli.load_config(str(workload.config), seed=seed))


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 6.0, 0, 0),  # overlaps a: together they cover [1, 6]
        Span("late", 9.0, 12.0, 0, 0),  # only [9, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_wraps_counts_and_restores():
    def double(x):
        return 2 * x

    owner = types.SimpleNamespace(double=double)
    tracer = Tracer()
    tracer.op = 7
    tracer.wrap(owner, "double", "layer.double", lambda counts, args, out: counts.update(seen=out))
    outer = tracer.begin("outer")
    assert owner.double(21) == 42
    tracer.end(outer)
    tracer.restore()
    assert owner.double is double
    inner = tracer.spans[1]
    assert (inner.name, inner.parent, inner.op) == ("layer.double", 0, 7)
    assert tracer.counts[7] == {"layer.double.calls": 1, "seen": 42}
    assert tracer.self_total("outer", 7) == pytest.approx(tracer.total("outer", 7) - tracer.total("layer.double", 7))


def test_correct_run_bundles_pass(tiny, tmp_path):
    ledger = ledger_for(tiny["run"])
    for i in range(2):
        code, _, fits = run.call_cli(tiny["run"], 5, tmp_path / f"b{i}")
        assert fits > 0
        assert ledger.record(code, tmp_path / f"b{i}", fits) == []
    assert ledger.failed_ratio == 0.0


def test_tau_star_outside_the_interval_counts_as_failed(tiny, tmp_path):
    ledger = ledger_for(tiny["run"])
    bundle = tmp_path / "b"
    code, _, fits = run.call_cli(tiny["run"], 5, bundle)
    doc = json.loads((bundle / "selection.json").read_text())
    doc["quantile_selection"]["tau_star"] = 0.9
    (bundle / "selection.json").write_text(json.dumps(doc))
    problems = ledger.record(code, bundle, fits)
    assert any("outside" in p for p in problems)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_wrong_fit_count_counts_as_failed(tiny, tmp_path):
    ledger = ledger_for(tiny["run"])
    code, _, fits = run.call_cli(tiny["run"], 5, tmp_path / "b")
    assert any("n_trainings" in p for p in ledger.record(code, tmp_path / "b", fits + 1))
    assert ledger.failed_ratio == 1.0


def test_repeat_bytes_that_differ_count_as_failed(tiny, tmp_path):
    ledger = ledger_for(tiny["run"])
    first, second = tmp_path / "b0", tmp_path / "b1"
    code, _, fits = run.call_cli(tiny["run"], 5, first)
    assert ledger.record(code, first, fits) == []
    code, _, fits = run.call_cli(tiny["run"], 5, second)
    with open(second / "metrics_long.csv", "a", encoding="utf-8") as fh:
        fh.write("safe_quantile,test,all,mae,0.0\n")
    problems = ledger.record(code, second, fits)
    assert problems == ["bytes differ from the first call with this seed: ['metrics_long.csv']"]
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_frontier_missing_a_row_counts_as_failed(tiny, tmp_path):
    ledger = ledger_for(tiny["frontier"])
    bundle = tmp_path / "f"
    code, _, fits = run.call_cli(tiny["frontier"], 5, bundle)
    assert ledger.record(code, bundle, fits) == []
    rows = json.loads((bundle / "frontier.json").read_text())
    (bundle / "frontier.json").write_text(json.dumps(rows[:-1]))
    assert any("rows" in p for p in ledger.record(code, bundle, fits))


@pytest.mark.parametrize("command", ["run", "frontier"])
def test_runs_report_exactly_the_declared_metrics(tiny, tmp_path, monkeypatch, command):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT", tmp_path)
    traced = run.run_workload(tiny[command], 5, 0.0, True, tmp_path / "work")
    assert traced.ledger.failed == 0
    assert set(run.per_layer_metrics(traced)) == {m["name"] for m in declared["per_layer"]}
    assert (tmp_path / f"spans-{tiny[command].name}-seed5.json").is_file()
    untraced = run.run_workload(tiny[command], 5, 0.0, False, tmp_path / "work")
    assert set(run.end_to_end_metrics(untraced, 1.0)) == {m["name"] for m in declared["end_to_end"]}
