"""Measurement primitives of the host-speed benchmark.

Everything here is independent of the library under test, so the unit
tests in ``test_harness.py`` can exercise it with fakes:

* :class:`SpanRecorder` keeps spans in memory (name, start, end, parent,
  op id) plus plain call counts for functions too hot to span;
* :func:`self_times` turns the span list into per-span self time
  (duration minus the part covered by direct children);
* :func:`percentile` / :func:`format_percentile` report a latency
  percentile with its sample count and refuse a percentile that has
  fewer than ten samples beyond it;
* :class:`Tally` counts attempted, failed and skipped operations, and
  :class:`OpRunner` times one operation and judges its result outside
  the timed region.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: a percentile is printed only when this many samples lie beyond it
MIN_BEYOND = 10


# -- spans ---------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans of one single-threaded run.

    Spans nest strictly (the program is single-threaded), so the open
    spans form a stack and each span's parent is the span below it.
    ``op`` is the id shared by every span of one benchmark operation; 0
    marks set-up.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        #: set while the benchmark's own checks run: wrapped library
        #: calls they make are not the workload's and are not recorded
        self.paused = False
        self._stack: List[int] = []
        #: call counts of functions that are counted, not spanned
        self.counts: Counter = Counter()
        #: per-name sums of values observed on results (hops, rpcs, ...)
        self.sums: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (must be the innermost open span)."""
        self.end[index] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError("spans closed out of order")

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: str) -> None:
        """Write every span as a gzipped TSV line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.name)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                          f"{self.parent[i]}\t{self.op[i]}\n")


def self_times(rec: SpanRecorder) -> List[float]:
    """Per-span self time: duration minus the direct children's durations.

    Children are nested in their parent, so subtracting only direct
    children leaves grandchildren accounted exactly once (inside their
    own parent's duration).
    """
    selfs = [rec.end[i] - rec.start[i] for i in range(len(rec))]
    for i in range(len(rec)):
        parent = rec.parent[i]
        if parent >= 0:
            selfs[parent] -= rec.end[i] - rec.start[i]
    return selfs


def aggregate(rec: SpanRecorder, selfs: Sequence[float]
              ) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, self seconds, total seconds)`` over all spans."""
    calls: Counter = Counter()
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    for i in range(len(rec)):
        name = rec.names[rec.name[i]]
        calls[name] += 1
        self_s[name] += selfs[i]
        total_s[name] += rec.end[i] - rec.start[i]
    return {name: (calls[name], self_s[name], total_s[name])
            for name in calls}


# -- percentiles ---------------------------------------------------------------


def rank(n: int, pct: int) -> int:
    """Nearest-rank position (1-based) of the ``pct``-th percentile."""
    return max(1, -(-pct * n // 100))


def beyond(n: int, pct: int) -> int:
    """How many of ``n`` samples lie beyond the ``pct``-th percentile."""
    return n - rank(n, pct) if n else 0


def percentile(samples: Sequence[float], pct: int) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (a median needs no tail)."""
    n = len(samples)
    if n == 0 or (pct != 50 and beyond(n, pct) < MIN_BEYOND):
        return None
    return sorted(samples)[rank(n, pct) - 1]


def format_percentile(name: str, unit: str, scale: float,
                      samples: Sequence[float], pct: int) -> str:
    """One report line: the value with its sample count, or why not."""
    n = len(samples)
    value = percentile(samples, pct)
    if value is None:
        need = -(-MIN_BEYOND * 100 // (100 - pct)) if pct != 50 else 1
        return (f"{name:<22} {'n/a':>12} {unit:<6} (n={n}; needs "
                f">= {need} samples so that {MIN_BEYOND} lie beyond it)")
    return f"{name:<22} {value * scale:>12.4f} {unit:<6} (n={n})"


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- operation accounting --------------------------------------------------------


class Tally:
    """Attempted / failed / skipped operations and the correctness gate.

    A failed operation counts once in :attr:`failed`; a skipped one (its
    user is offline) counts in :attr:`skipped` only, never as attempted.
    A broken correctness check is recorded in :attr:`problems` and makes
    the whole run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.causes: Counter = Counter()
        self.problems: List[str] = []

    def skip(self) -> None:
        self.skipped += 1

    def outcome(self, cause: Optional[str]) -> None:
        """Record one attempted operation; ``cause`` marks a failure."""
        self.attempted += 1
        if cause is not None:
            self.failed += 1
            self.causes[cause] += 1

    def problem(self, message: str) -> None:
        """A correctness check failed; keep the first few messages."""
        if len(self.problems) < 20:
            self.problems.append(message)
        else:
            self.problems[-1] = "... more problems omitted"

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return not self.problems


class OpRunner:
    """Times closed-loop operations and judges them outside the timing.

    ``errors`` are the exception types an operation may raise as a
    reported failure (the library's base error); anything else
    propagates and aborts the run.  ``judge(result)`` returns a failure
    cause or ``None`` and may record correctness problems on the tally;
    it runs after the clock stops.  ``phase_s`` accumulates the timed
    wall time, so checks never count towards throughput.
    """

    def __init__(self, tally: Tally, errors: Tuple[type, ...],
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.tally = tally
        self.errors = errors
        self.clock = clock
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: (start, kind, elapsed, is_op) of every timed step, in order
        self.log: List[Tuple[float, str, float, bool]] = []
        self.phase_s = 0.0
        #: when set, each timed step opens a root span ``op.<kind>``
        #: under a fresh op id
        self.recorder: Optional[SpanRecorder] = None

    def run(self, kind: str, call: Callable[[], object],
            judge: Callable[[object], Optional[str]]) -> object:
        """Time ``call``; returns its result (``None`` when it raised)."""
        rec = self.recorder
        root = self._open_root(rec, kind)
        started = self.clock()
        try:
            result = call()
        except self.errors:
            elapsed = self.clock() - started
            result, cause = None, "exception"
        else:
            elapsed = self.clock() - started
            cause = None
        if rec is not None:
            rec.close(root)
        self._record(started, kind, elapsed, True)
        if cause is None:
            if rec is not None:
                rec.paused = True
            try:
                cause = judge(result)
            finally:
                if rec is not None:
                    rec.paused = False
        self.tally.outcome(cause)
        return result

    def timed(self, kind: str, call: Callable[[], object]) -> object:
        """Time a step that is not an operation (virtual-time advance)."""
        rec = self.recorder
        root = self._open_root(rec, kind)
        started = self.clock()
        result = call()
        elapsed = self.clock() - started
        if rec is not None:
            rec.close(root)
        self._record(started, kind, elapsed, False)
        return result

    def _record(self, started: float, kind: str, elapsed: float,
                is_op: bool) -> None:
        self.samples[kind].append(elapsed)
        self.log.append((started, kind, elapsed, is_op))
        self.phase_s += elapsed

    @staticmethod
    def _open_root(rec: Optional[SpanRecorder], kind: str) -> int:
        if rec is None:
            return -1
        rec.op_id += 1
        return rec.open("op." + kind)
