"""Loading saved benchmark results and the statistics both reports share.

A result file holds what ``run.py`` prints: a details line followed by the
result line.  ``run.py --out DIR`` writes one per run; redirecting stdout
to a ``.json`` file gives the same thing.
"""
from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT_UNITS = ("count", "bytes")


@dataclass
class Run:
    path: Path
    workload: str
    seed: int
    trace: int
    correct: bool
    failed: int
    metrics: dict  # name -> value


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(spec: dict) -> dict[int, list[dict]]:
    """Metric entries by trace mode: 0 end-to-end, 1 per-layer."""
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def load_runs(paths) -> list[Run]:
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        lines = [line for line in f.read_text().splitlines() if line.strip()]
        if len(lines) < 2:
            raise ValueError(f"{f}: expected a details line and a result line")
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append(Run(
            path=f, workload=detail["workload"], seed=detail["seed"],
            trace=detail["trace"], correct=result["correct"],
            failed=result["failed"],
            metrics={k: v["value"] for k, v in result["metrics"].items()},
        ))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 when all are 0)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(q2)


def worse_share(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    diff = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if diff == 0 else (float("inf") if diff > 0 else float("-inf"))
    return diff / abs(parent)


def group(runs: list[Run]) -> dict[tuple[str, int], list[Run]]:
    out: dict[tuple[str, int], list[Run]] = {}
    for r in runs:
        out.setdefault((r.workload, r.trace), []).append(r)
    return out
