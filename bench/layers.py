"""Which riskcast functions the traced run wraps, and the per-layer metrics.

Each wrap sits at the attribute the pipeline resolves at call time, so the
program's own code runs unchanged. Counters are kept per operation (one
``cli.main`` call); ``per_layer`` turns one operation's spans and counters
into the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

from pathlib import Path

from spans import Tracer

MIB = 2**20


def _count_model(counts, args, model) -> None:
    counts["backbone.column_fits"] += model.horizon
    for regressor in model.horizon_models:
        counts["backbone.trees"] += len(regressor.trees)
        counts["backbone.nodes"] += sum(int(tree.feature.size) for tree in regressor.trees)


def _count_windows(counts, args, dataset) -> None:
    counts["data.samples"] += len(dataset)
    counts["data.features"] = dataset.X.shape[1]
    counts["data.X_bytes"] += dataset.X.nbytes


def _count_predict(counts, args, preds) -> None:
    counts["backbone.predict_rows"] += len(args[1])  # args: (model, X, layout)


def _count_safety(counts, args, report) -> None:
    counts["metrics.elements"] += args[0].n_elements


def _count_admission(counts, args, report) -> None:
    counts["admission.slots"] += report.n_slots


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; tracer.restore() undoes it."""
    import riskcast.admission
    import riskcast.backbone
    import riskcast.calibration
    import riskcast.cli
    import riskcast.data

    cli = riskcast.cli
    written: set[tuple[int, Path]] = set()

    def count_reports(counts, args, paths) -> None:
        # emit_report may rewrite a file the pipeline already wrote; only the
        # rewrites add to the bundle's own size in cli.bytes_written.
        for path in paths:
            key = (tracer.op, Path(path))
            if key in written:
                counts["cli.rewritten_bytes"] += Path(path).stat().st_size
            written.add(key)

    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "emit_report", "cli.emit_report", count_reports)
    tracer.wrap(cli, "load_trace", "data.load_trace")
    tracer.wrap(riskcast.data, "make_windows", "data.make_windows", _count_windows)
    tracer.wrap(cli, "run_selection", "calibration.run_selection")
    tracer.wrap(riskcast.calibration.QuantileEvaluator, "__call__", "calibration.evaluate")
    tracer.wrap(cli, "budget_scale_search", "calibration.budget_scale_search")
    tracer.wrap(riskcast.calibration, "train_quantile_model", "backbone.train_quantile_model", _count_model)
    tracer.wrap(cli, "train_point_model", "backbone.train_point_model", _count_model)
    tracer.wrap(riskcast.backbone.QuantileModel, "predict", "backbone.predict", _count_predict)
    tracer.wrap(cli, "safety_report", "metrics.safety_report", _count_safety)
    tracer.wrap(riskcast.admission, "simulate", "admission.simulate", _count_admission)


def per_layer(tracer: Tracer, op: int, bundle: Path) -> dict[str, tuple[float, str]]:
    """(value, unit) of each per-layer metric of one traced operation.

    `bundle` is the report directory the operation wrote.
    """
    c = tracer.counts[op]

    def busy(name: str) -> float:
        return tracer.total(name, op)

    quantile_fits = c["backbone.train_quantile_model.calls"]
    fits = quantile_fits + c["backbone.train_point_model.calls"]
    fit_s = busy("backbone.train_quantile_model") + busy("backbone.train_point_model")
    requests = c["calibration.evaluate.calls"]
    bundle_bytes = sum(p.stat().st_size for p in bundle.iterdir() if p.is_file())
    return {
        "backbone.fit_s": (fit_s, "s"),
        "backbone.fits": (fits, "count"),
        "backbone.column_fits": (c["backbone.column_fits"], "count"),
        "backbone.trees": (c["backbone.trees"], "count"),
        "backbone.nodes": (c["backbone.nodes"], "count"),
        "backbone.trees_per_s": (c["backbone.trees"] / fit_s if fit_s > 0 else 0.0, "1/s"),
        "backbone.predict_s": (busy("backbone.predict"), "s"),
        "backbone.predict_rows": (c["backbone.predict_rows"], "count"),
        "calibration.eval_requests": (requests, "count"),
        "calibration.fits": (quantile_fits, "count"),
        "calibration.cache_hit_ratio": ((requests - quantile_fits) / requests if requests else 0.0, "ratio"),
        "calibration.selection_s": (busy("calibration.run_selection"), "s"),
        "calibration.search_self_s": (tracer.self_total("calibration.run_selection", op), "s"),
        "calibration.budget_scale_s": (busy("calibration.budget_scale_search"), "s"),
        "data.load_trace_s": (busy("data.load_trace"), "s"),
        "data.make_windows_s": (busy("data.make_windows"), "s"),
        "data.samples": (c["data.samples"], "count"),
        "data.features": (c["data.features"], "count"),
        "data.X_mb": (c["data.X_bytes"] / MIB, "MiB"),
        "metrics.safety_report_s": (busy("metrics.safety_report"), "s"),
        "metrics.elements": (c["metrics.elements"], "count"),
        "admission.simulate_s": (busy("admission.simulate"), "s"),
        "admission.slots": (c["admission.slots"], "count"),
        "cli.config_s": (busy("cli.load_config"), "s"),
        "cli.report_s": (busy("cli.emit_report"), "s"),
        "cli.emit_report_calls": (c["cli.emit_report.calls"], "count"),
        "cli.bytes_written": (bundle_bytes + c["cli.rewritten_bytes"], "bytes"),
    }
