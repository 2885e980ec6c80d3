"""Output contract of one benchmark run (stdlib only).

The last line a run prints is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``metrics``
holds every metric of the run's kind, by the names and units
``BENCHMARK.json`` declares: the ``end_to_end`` list for an untraced
run, the ``per_layer`` list for a traced one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expected_metrics(benchmark: dict, trace: bool) -> dict[str, str]:
    """``{name: unit}`` a run of the given kind must print."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def load_benchmark(root: str | Path) -> dict:
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_result(result, expected: dict[str, str]) -> list[str]:
    """Every way ``result`` breaks the output contract (empty if none)."""
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not _is_int(attempted) or attempted < 1:
        problems.append("attempted is not a whole number >= 1")
    if not _is_int(failed) or failed < 0 or (
            _is_int(attempted) and failed > attempted):
        problems.append("failed is not a whole number in [0, attempted]")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"unexpected metrics {extra}")
    for name in sorted(set(expected) & set(metrics)):
        entry = metrics[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: want exactly value and unit")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if entry["unit"] != expected[name]:
            problems.append(f"{name}: unit {entry['unit']!r} != "
                            f"{expected[name]!r}")
    return problems
