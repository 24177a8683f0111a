"""Compare two result sets written with ``run.py --out``.

For every workload × metric, prints each side's median and quartiles
and how many seed-matched pairs B wins (ties count for neither side), in
the direction ``BENCHMARK.json`` gives the metric.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _directions() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric.get("better", "lower")
            for metric in spec["end_to_end"] + spec["per_layer"]}


def load(path: str) -> Dict[Tuple[str, int], Dict[str, List]]:
    """``(workload, trace) -> metric -> [(seed, value), ...]``."""
    table: Dict[Tuple[str, int], Dict[str, List]] = defaultdict(
        lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            info = record["manifest"]
            key = (info["workload"], info["trace"])
            for name, metric in record["result"]["metrics"].items():
                table[key][name].append((info["seed"], metric["value"]))
    return table


def summary(values: List[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def wins(a: List[Tuple[int, float]], b: List[Tuple[int, float]],
         better: str) -> Tuple[int, int, int]:
    """(B wins, ties, pairs) over runs paired by seed in run order."""
    pool: Dict[int, List[float]] = defaultdict(list)
    for seed, value in a:
        pool[seed].append(value)
    won = tied = pairs = 0
    for seed, value in b:
        if not pool[seed]:
            continue
        other = pool[seed].pop(0)
        pairs += 1
        if value == other:
            tied += 1
        elif (value < other) == (better == "lower"):
            won += 1
    return won, tied, pairs


def compare(path_a: str, path_b: str) -> int:
    a, b = load(path_a), load(path_b)
    better = _directions()
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<15} {'metric':<32} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} B wins")
    for key in sorted(set(a) | set(b)):
        workload, _ = key
        for metric in sorted(set(a.get(key, {})) | set(b.get(key, {}))):
            side_a = a.get(key, {}).get(metric, [])
            side_b = b.get(key, {}).get(metric, [])
            text_a = summary([v for _, v in side_a]) if side_a else "-"
            text_b = summary([v for _, v in side_b]) if side_b else "-"
            won, tied, pairs = wins(side_a, side_b,
                                    better.get(metric, "lower"))
            print(f"{workload:<15} {metric:<32} {text_a:<30} {text_b:<30} "
                  f"{won}/{pairs} (ties {tied})")
    return 0
