"""Checks on the report bundle of one ``riskcast run`` or ``riskcast frontier`` call.

Every check returns a list of problems; an empty list means the call's
outputs are correct. They read only the files the CLI wrote, so a bundle
edited after the fact fails them the same way a wrong program would.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SAFE = "safe_quantile"
POINT = "point"

# Files whose bytes must repeat exactly for the same config and seed
# (manifest.json carries a creation time and is left out).
REPEATED_FILES = {
    "run": ("metrics_long.csv", "selection.json"),
    "frontier": ("frontier.csv",),
}


def fingerprint(bundle: Path, command: str) -> dict[str, str]:
    out = {}
    for name in REPEATED_FILES[command]:
        path = bundle / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return out


def parse_bundle(bundle: Path, problems: list[str]) -> dict[str, object]:
    """Parse every JSON and CSV file of the bundle; record those that do not parse."""
    docs: dict[str, object] = {}
    for path in sorted(bundle.iterdir()):
        try:
            if path.suffix == ".json":
                docs[path.name] = json.loads(path.read_text(encoding="utf-8"))
            elif path.suffix == ".csv":
                with open(path, newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                if not rows or any(len(r) != len(rows[0]) for r in rows):
                    raise ValueError("ragged or empty table")
                docs[path.name] = rows
        except (OSError, UnicodeDecodeError, ValueError, csv.Error) as exc:
            problems.append(f"{path.name} does not parse: {exc}")
    return docs


def check_run(bundle: Path, risk, baselines, fits: int) -> list[str]:
    """Checks on a `riskcast run` bundle; `fits` is the count of quantile fits seen."""
    problems: list[str] = []
    docs = parse_bundle(bundle, problems)
    for name in ("selection.json", "reports.json", "metrics_long.csv"):
        if name not in docs:
            problems.append(f"{name} missing")
    if problems:
        return problems
    sel = docs["selection.json"]["quantile_selection"]
    tau = sel["tau_star"]
    if not risk.tau_min <= tau <= risk.tau_max:
        problems.append(f"tau_star {tau} outside [{risk.tau_min}, {risk.tau_max}]")
    if sel["feasible"]:
        chosen = [e for e in sel["fine_grid"] if e["tau"] == tau]
        if not chosen:
            problems.append(f"tau_star {tau} is not on the fine grid")
        elif chosen[0]["over_rate"] > risk.epsilon:
            problems.append(
                f"feasible selection has calibration over_rate {chosen[0]['over_rate']} > {risk.epsilon}"
            )
    if sel["n_trainings"] != fits:
        problems.append(f"n_trainings {sel['n_trainings']} != {fits} fits counted")
    missing = {SAFE, *baselines} - set(docs["reports.json"]["methods"])
    if missing:
        problems.append(f"reports.json lacks methods {sorted(missing)}")
    if len(docs["metrics_long.csv"]) < 2:
        problems.append("metrics_long.csv has no rows")
    return problems


def check_frontier(bundle: Path, risk, baselines, epsilons) -> list[str]:
    """Checks on a `riskcast frontier` bundle swept over `epsilons`."""
    problems: list[str] = []
    docs = parse_bundle(bundle, problems)
    for name in ("frontier.json", "frontier.csv"):
        if name not in docs:
            problems.append(f"{name} missing")
    if problems:
        return problems
    rows = docs["frontier.json"]
    expected = len(epsilons) * (len(baselines) + 1)
    if len(rows) != expected or len(docs["frontier.csv"]) - 1 != expected:
        problems.append(f"frontier has {len(rows)} rows, expected {expected}")
    if sorted({r["epsilon"] for r in rows}) != sorted(epsilons):
        problems.append("frontier budgets differ from the requested ones")
    for r in rows:
        if r["method"] == SAFE and not risk.tau_min <= r["control"] <= risk.tau_max:
            problems.append(f"eps={r['epsilon']}: tau {r['control']} outside [{risk.tau_min}, {risk.tau_max}]")
    return problems


def quality(bundle: Path, command: str) -> dict[str, float]:
    """Test-split quality of the safe quantile and point predictors.

    On a frontier the safe-quantile figures are means over budgets.
    """
    if command == "run":
        methods = json.loads((bundle / "reports.json").read_text(encoding="utf-8"))["methods"]
        safe = methods[SAFE]
        return {
            "safe.test_mae": safe["safety"]["mae"],
            "safe.test_over_rate": safe["safety"]["over_rate"],
            "safe.mean_dropped": safe["admission"]["mean_dropped"],
            "point.test_mae": methods[POINT]["safety"]["mae"],
        }
    rows = json.loads((bundle / "frontier.json").read_text(encoding="utf-8"))

    def mean(method: str, key: str) -> float:
        values = [r[key] for r in rows if r["method"] == method]
        return sum(values) / len(values)

    return {
        "safe.test_mae": mean(SAFE, "mae"),
        "safe.test_over_rate": mean(SAFE, "over_rate"),
        "point.test_mae": mean(POINT, "mae"),
    }
