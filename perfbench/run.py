"""Host-speed benchmark of the DOSN library: one workload per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload social_dht --seed 1 --seconds 10 \\
        --trace 0

Workloads are ``social_dht``, ``churn_quorum`` and ``overlay_lookup``
(see ``perfbench/NOTES.md``).  The run prints a human-readable report
(every end-to-end metric by name with its unit, each percentile with its
sample count, the run manifest and the modelled-output digest) and, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` makes a separate traced run and
reports its per-layer metrics.  A failed correctness check exits 1.

Other modes::

    python3 perfbench/run.py ... --out results.jsonl   # also append a record
    python3 perfbench/run.py --compare A.jsonl B.jsonl  # two result sets
    python3 perfbench/run.py --digest-check --workload churn_quorum --seed 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: wall-time guard on the stream (checks included), in seconds
MAX_PHASE_S = 120.0

#: report metric name, runner kind, unit, scale from seconds
LATENCY_METRICS = (
    ("post_ms", "post", "ms", 1e3),
    ("feed_ms", "feed", "ms", 1e3),
    ("advance_ms", "advance", "ms", 1e3),
    ("chord_lookup_us", "chord_lookup", "us", 1e6),
    ("chord_put_ms", "chord_put", "ms", 1e3),
    ("kad_lookup_us", "kad_lookup", "us", 1e6),
)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_library():
    """Put the checkout's ``src`` on the path and import the library.

    Raises :class:`ImportError` when the checkout has no library sources,
    also when some other ``repro`` is importable.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}")
    from repro.exceptions import ReproError
    import workloads
    return ReproError, workloads


def _run_stream(wl, runner, steps: int, on_block=None,
                speed=None) -> Dict:
    """Run ``steps`` steps of the workload's stream; returns the digest.

    ``on_block(index)`` is called at each block boundary of a traced run;
    ``speed`` is probed between steps.  A stream still running after
    :data:`MAX_PHASE_S` stops early (a guard for the run's time limit),
    and the report says so.
    """
    started = time.perf_counter()
    for i in range(steps):
        if on_block is not None and i % wl.block == 0:
            on_block(i // wl.block)
        if speed is not None:
            speed.maybe_sample()
        wl.step(i)
        if time.perf_counter() - started > MAX_PHASE_S:
            print(f"stream stopped early after {i + 1} of {steps} steps")
            break
    if on_block is not None:
        on_block(None)
    return wl.digest()


def _report_latencies(runner, lines: List[str]) -> None:
    from harness import format_percentile
    for name, kind, unit, scale in LATENCY_METRICS:
        samples = runner.samples.get(kind, [])
        for pct in (50, 99):
            metric = f"{name}_p{pct}"
            if not samples:
                lines.append(f"{metric:<22} {'-':>12} {unit:<6} (not run "
                             "by this workload)")
            else:
                lines.append(format_percentile(metric, unit, scale, samples,
                                               pct))


def _digest_lines(digest: Dict[str, int]) -> List[str]:
    text = json.dumps(digest, sort_keys=True)
    sha = hashlib.sha256(text.encode()).hexdigest()[:16]
    return [f"digest {text}", f"digest_sha256 {sha}"]


def plain_run(args, workloads, errors) -> Dict:
    from harness import OpRunner, Tally, geometric_mean, percentile
    from probe import HostSpeed, SegmentTimer
    cls = workloads.WORKLOADS[args.workload]
    speed = HostSpeed()
    setups: List = []
    wl = None
    for _ in range(cls.setups):
        wl = None
        gc.collect()
        wl = cls(args.seed)
        speed.sample()
        timer = SegmentTimer(speed)
        wl.setup(timer.tick)
        timer.stop()
        setups.append(timer)
    tally = Tally()
    runner = OpRunner(tally, errors)
    wl.bind(runner)
    digest = _run_stream(wl, runner, wl.steps(args.seconds), speed=speed)
    wl.readback()

    # Every timed step and set-up at the reference host speed (probe.py).
    factor_at = speed.window_factors()
    setup_raw = [timer.raw() for timer in setups]
    setup_scaled = [timer.scaled(factor_at) for timer in setups]
    scaled: Dict[str, List[float]] = defaultdict(list)
    busy = 0.0
    for started, kind, elapsed, _ in runner.log:
        scaled[kind].append(elapsed * factor_at(started))
        busy += scaled[kind][-1]
    kinds = wl.kinds
    p50 = {kind: percentile(scaled[kind], 50) for kind in kinds}
    metrics = {
        "setup_s": _metric(statistics.median(setup_scaled), "s"),
        "ops_per_s": _metric(tally.attempted / busy, "ops/s"),
        "op_latency_ms": _metric(
            geometric_mean([p50[kind] for kind in kinds]) * 1e3, "ms"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MiB"),
    }
    value = {name: metric["value"] for name, metric in metrics.items()}
    lines = [
        f"{'setup_s':<22} {statistics.median(setup_raw):>12.4f} {'s':<6} "
        f"(median of {len(setup_raw)} set-ups: "
        + ", ".join(f"{t:.3f}" for t in setup_raw)
        + f"; {value['setup_s']:.4f} at reference speed)",
        f"{'ops_per_s':<22} {tally.attempted / runner.phase_s:>12.2f} "
        f"{'ops/s':<6} ({tally.attempted} ops in {runner.phase_s:.3f} s of "
        f"timed phase; {value['ops_per_s']:.2f} at reference speed)",
        f"{'error_rate':<22} {tally.error_rate:>12.4f} {'ratio':<6} "
        f"({tally.failed} failed of {tally.attempted} attempted; "
        f"{tally.skipped} skipped offline; causes "
        f"{dict(sorted(tally.causes.items()))})",
        f"{'peak_rss_mb':<22} {value['peak_rss_mb']:>12.1f} {'MiB':<6}",
    ]
    _report_latencies(runner, lines)
    lines += [
        f"{'op_latency_ms':<22} {value['op_latency_ms']:>12.4f} {'ms':<6} "
        "(at reference speed: geometric mean of the medians of "
        + ", ".join(f"{k} {p50[k] * 1e3:.4f}" for k in kinds) + ")",
        f"host speed: median probe {speed.median_probe_s() * 1e3:.4f} ms "
        f"over {len(speed.samples)} probes (reference "
        f"{speed.reference_s * 1e3:.4f} ms)",
    ]
    return {"wl": wl, "tally": tally, "metrics": metrics, "lines": lines,
            "digest": digest}


def traced_run(args, workloads, errors) -> Dict:
    from harness import OpRunner, SpanRecorder, Tally, aggregate, self_times
    from instrument import (PER_LAYER_UNITS, delta, install, layer_metrics,
                            uninstall)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed)
    setup_rec = SpanRecorder()
    patches = install(setup_rec)
    try:
        wl.setup()
    finally:
        uninstall(patches)
    tally = Tally()
    runner = OpRunner(tally, errors)
    wl.bind(runner)
    rec = SpanRecorder()
    # Traced and untraced blocks alternate, so both see the same mix of
    # the stream; their throughput ratio prices the tracing itself.
    state = {"patches": None, "mark": None}
    sides = {True: [0, 0.0], False: [0, 0.0]}   # traced? -> [ops, seconds]
    modelled: Dict[str, int] = {}

    def on_block(index: Optional[int]) -> None:
        mark = state["mark"]
        if mark is not None:
            traced, ops0, phase0, counts0 = mark
            sides[traced][0] += tally.attempted - ops0
            sides[traced][1] += runner.phase_s - phase0
            if traced:
                uninstall(state["patches"])
                runner.recorder = wl.recorder = None
                for key, value in delta(wl.counters(), counts0).items():
                    modelled[key] = modelled.get(key, 0) + value
        if index is None:
            return
        traced = index % 2 == 1
        counts0 = None
        if traced:
            counts0 = wl.counters()
            state["patches"] = install(rec)
            runner.recorder = wl.recorder = rec
        state["mark"] = (traced, tally.attempted, runner.phase_s, counts0)

    digest = _run_stream(wl, runner, wl.steps(args.seconds), on_block)
    wl.readback()
    rates = {traced: ops / secs for traced, (ops, secs) in sides.items()}
    metrics_values = layer_metrics(
        aggregate(setup_rec, self_times(setup_rec)),
        aggregate(rec, self_times(rec)),
        rec, modelled, sides[True][0], rates[True] / rates[False])
    metrics = {name: _metric(metrics_values[name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"spans-{args.workload}-seed{args.seed}"
    setup_rec.write(str(out_dir / f"{stem}-setup.tsv.gz"))
    rec.write(str(out_dir / f"{stem}-run.tsv.gz"))
    lines = [f"{name:<34} {m['value']:>14.4f} {m['unit']}"
             for name, m in metrics.items()]
    lines.append(
        f"traced blocks: {sides[True][0]} ops in {sides[True][1]:.3f} s; "
        f"untraced blocks: {sides[False][0]} ops in {sides[False][1]:.3f} s; "
        f"{len(setup_rec) + len(rec)} spans, "
        f"{sum(rec.counts.values())} counted calls "
        f"({dict(rec.counts)}) written to {out_dir.name}/{stem}-*.tsv.gz")
    lines.append("membership.self_ms is the sim.run time not covered by "
                 "AntiEntropyDaemon.run_round or the churn flips (SWIM "
                 "ticks are private, so it is found by subtraction)")
    return {"wl": wl, "tally": tally, "metrics": metrics, "lines": lines,
            "digest": digest}


def run(args) -> int:
    try:
        errors, workloads = _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from manifest import manifest
    out = (traced_run if args.trace else plain_run)(args, workloads,
                                                    (errors,))
    wl, tally = out["wl"], out["tally"]
    info = manifest(args, wl, ROOT)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("manifest " + json.dumps(info, sort_keys=True))
    for line in out["lines"]:
        print(line)
    for line in _digest_lines(out["digest"]):
        print(line)
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"correct: {'yes' if tally.correct else 'NO'}")
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": out["metrics"]}
    if args.out:
        record = {"manifest": info, "digest": out["digest"],
                  "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if tally.correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("social_dht", "churn_quorum",
                                 "overlay_lookup"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record (manifest, "
                        "digest, result) to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two JSONL result sets and exit")
    parser.add_argument("--digest-check", action="store_true",
                        help="run the workload twice under each of two "
                        "PYTHONHASHSEED values and compare the digests")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.digest_check:
        from manifest import digest_check
        return digest_check(Path(__file__), args.workload, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
