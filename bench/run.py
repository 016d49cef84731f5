"""Benchmark of riskcast through its public CLI entry point.

One run measures one workload in this process: it calls
``riskcast.cli.main([...])`` with the workload's config and ``--seed``
repeatedly for about ``--seconds`` seconds (at least twice, so that repeats
can be compared byte for byte), checks every call's report bundle, and
prints each metric with its unit. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, all from untraced
calls. With ``--trace 1`` untraced and traced calls alternate: the traced
ones wrap each layer's public functions (see layers.py) and give the
per-layer metrics, and the difference in wall time is ``trace.overhead_s``.

    python3 bench/run.py --workload demo_run --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_CALLS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "frontier"
    config: Path
    epsilons: tuple[float, ...] = ()  # frontier budgets

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--config", str(self.config), "--seed", str(seed), "--output", str(out)]
        if self.epsilons:
            argv += ["--epsilons", ",".join(str(e) for e in self.epsilons)]
        return argv


# Why each workload exists is recorded in bench/NOTES.md. The frontier
# budgets keep clear of the calibration over_rate at tau_min and tau_max, so
# the number of fits does not change with the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo_run", "run", ROOT / "configs" / "synthetic-demo.yaml"),
        Workload("demo_frontier", "frontier", ROOT / "configs" / "synthetic-demo.yaml", (0.25, 0.35, 0.45, 0.50)),
        Workload("paper_shape", "run", ROOT / "bench" / "paper_shape.yaml"),
    )
}


class Ledger:
    """Checks every cli.main call of a run; counts attempts and failures."""

    def __init__(self, workload: Workload, config) -> None:
        self.workload = workload
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None

    def record(self, exit_code: int, bundle: Path, fits: int) -> list[str]:
        """Check one call's outcome; returns its problems (none if correct)."""
        w, cfg = self.workload, self.config
        if exit_code != 0:
            problems = [f"exit code {exit_code}"]
        else:
            try:
                if w.command == "run":
                    problems = checks.check_run(bundle, cfg.risk, cfg.baselines, fits)
                else:
                    problems = checks.check_frontier(bundle, cfg.risk, cfg.baselines, list(w.epsilons))
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed bundle: {exc!r}"]
            digest = checks.fingerprint(bundle, w.command)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                changed = sorted(k for k in digest if digest[k] != self.reference[k])
                problems.append(f"bytes differ from the first call with this seed: {changed}")
        self.attempted += 1
        self.failed += bool(problems)
        return problems

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@contextlib.contextmanager
def counting(owner, attr: str):
    """Count calls of owner.attr without timing them."""
    original = getattr(owner, attr)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def call_cli(workload: Workload, seed: int, out: Path, tracer: Tracer | None = None) -> tuple[int, float, int]:
    """One cli.main call; returns (exit code, wall seconds, quantile fits made)."""
    import riskcast.calibration
    import riskcast.cli

    argv = workload.argv(seed, out)
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            with counting(riskcast.calibration, "train_quantile_model") as fits:
                t0 = time.perf_counter()
                code = riskcast.cli.main(argv)
                seconds = time.perf_counter() - t0
            return code, seconds, fits[0]
        layers.instrument(tracer)
        try:
            t0 = time.perf_counter()
            span = tracer.begin("cli.main")
            try:
                code = riskcast.cli.main(argv)
            finally:
                tracer.end(span)
            seconds = time.perf_counter() - t0
        finally:
            tracer.restore()
        return code, seconds, tracer.counts[tracer.op]["backbone.train_quantile_model.calls"]


@dataclass
class RunResult:
    ledger: Ledger
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    per_layer: list[dict[str, tuple[float, str]]] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> RunResult:
    """Call the CLI until `seconds` are used (and at least MIN_CALLS times)."""
    import riskcast.cli

    config = riskcast.cli.load_config(str(workload.config), seed=seed)
    result = RunResult(Ledger(workload, config))
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < MIN_CALLS or time.perf_counter() - start + last <= seconds:
        traced = trace and i % 2 == 1
        bundle = work / f"call{i}"
        if traced:
            tracer.op = i
        gc.collect()  # free the last call's cyclic garbage so it cannot raise this call's peak RSS
        code, last, fits = call_cli(workload, seed, bundle, tracer if traced else None)
        problems = result.ledger.record(code, bundle, fits)
        for p in problems:
            print(f"call {i}: {p}", file=sys.stderr)
        if not problems:
            (result.traced_s if traced else result.untraced_s).append(last)
            if not result.quality:
                result.quality = checks.quality(bundle, workload.command)
            if traced:
                result.per_layer.append(layers.per_layer(tracer, i, bundle))
        shutil.rmtree(bundle, ignore_errors=True)
        i += 1
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.json")
    return result


def setup_seconds(repeats: int = SETUP_REPEATS) -> float:
    """Median time to import riskcast.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import riskcast.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def input_size(workload: Workload, seed: int) -> str:
    import riskcast.cli
    import riskcast.data

    cfg = riskcast.cli.load_config(str(workload.config), seed=seed)
    ds = riskcast.data.make_windows(riskcast.cli.load_trace(cfg), cfg.history, cfg.horizon, cfg.split_ratios)
    return (
        f"{len(ds.train)} train rows x {ds.X.shape[1]} features, H={cfg.horizon}, "
        f"{cfg.backbone.n_trees} trees of depth {cfg.backbone.max_depth} per horizon step"
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(result: RunResult, setup_s: float) -> dict[str, dict]:
    q = result.quality
    return {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(statistics.median(result.untraced_s), "s"),
        "peak_rss_mb": metric(result.peak_rss_mb, "MiB"),
        "safe.test_mae": metric(q["safe.test_mae"], "Mbps"),
        "safe.test_over_rate": metric(q["safe.test_over_rate"], "ratio"),
        "point.test_mae": metric(q["point.test_mae"], "Mbps"),
    }


def per_layer_metrics(result: RunResult) -> dict[str, dict]:
    out = {
        name: metric(statistics.median(d[name][0] for d in result.per_layer), unit)
        for name, (_, unit) in result.per_layer[0].items()
    }
    # A frontier runs no admission simulation, so it drops nothing.
    out["admission.safe_mean_dropped"] = metric(result.quality.get("safe.mean_dropped", 0.0), "sessions")
    out["trace.overhead_s"] = metric(
        statistics.median(result.traced_s) - statistics.median(result.untraced_s), "s"
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    missing = [str(p) for p in (SRC / "riskcast" / "__init__.py", workload.config) if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riskcast

    if Path(riskcast.__file__).resolve().parent != SRC / "riskcast":
        print(f"error: imported riskcast from {riskcast.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup_s = setup_seconds() if not args.trace else 0.0
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = result.ledger
    if not result.untraced_s or (args.trace and not result.traced_s):
        print(f"error: no correct {workload.command} call ({ledger.failed}/{ledger.attempted} failed)", file=sys.stderr)
        return 1

    metrics = per_layer_metrics(result) if args.trace else end_to_end_metrics(result, setup_s)
    print(f"workload {workload.name}, seed {args.seed}: {input_size(workload, args.seed)}")
    print(f"cli.main seconds: untraced {[round(s, 3) for s in result.untraced_s]}, "
          f"traced {[round(s, 3) for s in result.traced_s]}; run_s is the median of the untraced ones")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<30} {ledger.failed_ratio:>14.6g} ratio ({ledger.failed}/{ledger.attempted})")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
