"""Tests of the benchmark harness itself (not of the library).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import (OpRunner, SpanRecorder, Tally, aggregate,  # noqa: E402
                     format_percentile, percentile, self_times)


class FakeClock:
    """Returns scripted instants, one per call."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


class Boom(Exception):
    pass


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    rec = SpanRecorder(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = rec.open("root")
    a = rec.open("a")
    a1 = rec.open("a1")
    rec.close(a1)
    rec.close(a)
    b = rec.open("b")
    rec.close(b)
    rec.close(root)
    selfs = self_times(rec)
    assert selfs == [10 - 3 - 4, 3 - 1, 1, 4]
    assert sum(selfs) == 10  # self times partition the root's duration


def test_sibling_spans_of_one_name_aggregate():
    # root [0, 10] with two "x" siblings [1, 3] and [4, 8], x2 nested in
    # the second [5, 6]
    rec = SpanRecorder(clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    root = rec.open("root")
    for _ in range(2):
        x = rec.open("x")
        if rec.start[x] == 4:
            inner = rec.open("x2")
            rec.close(inner)
        rec.close(x)
    rec.close(root)
    stats = aggregate(rec, self_times(rec))
    assert stats["x"] == (2, 2 + 3, 2 + 4)     # calls, self, total
    assert stats["root"] == (1, 10 - 6, 10)
    assert stats["x2"] == (1, 1, 1)


def test_spans_must_close_innermost_first():
    rec = SpanRecorder(clock=FakeClock(0, 1, 2))
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


# -- percentiles ----------------------------------------------------------------------


def test_percentile_prints_its_sample_count():
    samples = [i / 1000 for i in range(1, 1001)]
    line = format_percentile("x_ms_p99", "ms", 1e3, samples, 99)
    assert "(n=1000)" in line
    assert percentile(samples, 99) == samples[989]  # 10 samples beyond


def test_p99_refused_with_fewer_than_ten_samples_beyond():
    samples = [float(i) for i in range(999)]
    assert percentile(samples, 99) is None
    line = format_percentile("x_ms_p99", "ms", 1e3, samples, 99)
    assert "n/a" in line and "n=999" in line and ">= 1000" in line


def test_median_needs_no_tail():
    assert percentile([3.0], 50) == 3.0
    assert "(n=1)" in format_percentile("x_ms_p50", "ms", 1.0, [3.0], 50)


# -- error accounting ------------------------------------------------------------------


def _runner() -> OpRunner:
    return OpRunner(Tally(), (Boom,), clock=iter(range(100)).__next__)


def test_exception_unclean_feed_and_wrong_owner_count_once_each():
    import workloads

    runner = _runner()
    tally = runner.tally

    def raises():
        raise Boom("holders offline")

    runner.run("post", raises, lambda result: None)

    dosn = workloads.SocialDht(seed=1)
    dosn.bind(runner)
    dosn.net = SimpleNamespace(users={"r": SimpleNamespace(friends={"a"})})
    unclean = SimpleNamespace(items=[], violations=[],
                              clean=False, unavailable=[("cid", "gone")])
    runner.run("feed", lambda: unclean,
               lambda report: dosn._judge_feed("r", report))

    overlay = workloads.OverlayLookup(seed=1)
    overlay.bind(runner)
    overlay._chord_ids = [10, 20]
    overlay._chord_owner = ["n10", "n20"]
    overlay.chord_reference = lambda key: "n20"
    overlay.ring = SimpleNamespace(owner_of=lambda key: "n20")
    wrong = SimpleNamespace(owner="n10", hops=3)
    runner.run("chord_lookup", lambda: wrong,
               lambda result: overlay._judge_owner("k", result))

    runner.run("chord_lookup", lambda: SimpleNamespace(owner="n20", hops=2),
               lambda result: overlay._judge_owner("k", result))

    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.causes == {"exception": 1, "feed_unavailable": 1,
                            "wrong_owner": 1}
    assert tally.error_rate == 3 / 4
    # a wrong owner also fails the correctness gate; unavailability does not
    assert not tally.correct and len(tally.problems) == 1
    assert len(runner.samples["chord_lookup"]) == 2


def test_skipped_offline_op_counts_zero_times():
    import workloads

    runner = _runner()
    churn = workloads.ChurnQuorum(seed=1)
    churn.bind(runner)
    churn._online = lambda user: False
    churn._next_post = lambda: SimpleNamespace(author="a", text="t",
                                               tags=())
    churn._post()
    assert (runner.tally.attempted, runner.tally.failed,
            runner.tally.skipped) == (0, 0, 1)
    assert runner.tally.error_rate == 0.0
    assert not runner.samples["post"]


def test_library_calls_made_by_checks_are_not_traced():
    import instrument
    from repro.overlay.simulator import Simulator

    def check(result):
        Simulator(seed=2).run(until=1.0)   # the check's own library call
        return None

    rec = SpanRecorder()
    runner = _runner()
    runner.recorder = rec
    patches = instrument.install(rec)
    try:
        runner.run("advance", lambda: Simulator(seed=1).run(until=1.0),
                   check)
    finally:
        instrument.uninstall(patches)
    stats = aggregate(rec, self_times(rec))
    assert stats["sim.run"][0] == 1 and stats["op.advance"][0] == 1


def test_checks_run_outside_the_timed_region():
    clock = FakeClock(0.0, 2.0)
    runner = OpRunner(Tally(), (Boom,), clock=clock)
    runner.run("post", lambda: "cid", lambda result: None)
    assert runner.samples["post"] == [2.0]
    assert runner.phase_s == 2.0   # the judge read no clock


# -- instrumentation ------------------------------------------------------------------


def test_install_wraps_and_uninstall_restores():
    import instrument
    from repro.overlay.simulator import Simulator

    original = Simulator.__dict__["run"]
    rec = SpanRecorder()
    patches = instrument.install(rec)
    try:
        assert Simulator.__dict__["run"] is not original
        Simulator(seed=1).run(until=1.0)
    finally:
        instrument.uninstall(patches)
    assert Simulator.__dict__["run"] is original
    assert aggregate(rec, self_times(rec))["sim.run"][0] == 1
