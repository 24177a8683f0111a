"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads social_dht,overlay_lookup \\
        --seeds 1-10 --out results.jsonl

Runs ``run.py`` once per workload × seed, one process at a time,
appending every record to ``--out``.  It then prints, per workload and
metric, the median and the quartile spread ``(q3 - q1) / median`` of the
values, next to the bound ``BENCHMARK.json`` fixes for end-to-end
metrics.  Two sweep files of different commits go to
``run.py --compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spreads(path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            workload = record["manifest"]["workload"]
            for name, metric in record["result"]["metrics"].items():
                values[(workload, name)].append(metric["value"])
    worst = 0.0
    print(f"{'workload':<15} {'metric':<32} {'n':>3} {'median':>12} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), vals in sorted(values.items()):
        median = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not spread < bound / 3:
            flag = "  <-- above a third of the bound"
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{workload:<15} {name:<32} {len(vals):>3} {median:>12.5g} "
              f"{spread:>8.4f} {bound if bound is not None else '':>6}"
              f"{flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="social_dht,churn_quorum,"
                        "overlay_lookup")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace), "--out", args.out],
                capture_output=True, text=True, timeout=600, check=False)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {proc.returncode} in "
                  f"{time.perf_counter() - started:.1f} s "
                  f"{last[0][:160]}", flush=True)
            if proc.returncode != 0:
                print(proc.stdout[-3000:] + proc.stderr[-3000:])
                return 1
    return spreads(args.out)


if __name__ == "__main__":
    sys.exit(main())
