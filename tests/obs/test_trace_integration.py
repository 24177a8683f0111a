"""Spans through the real stack: resilient lookups, exporters, determinism."""

import json

import pytest

from repro.exceptions import LookupError_, StorageError
from repro.faults import (CircuitBreaker, FaultPlan, LossBurst, RetryPolicy)
from repro.fabric import Fabric
from repro.obs.export import (cost_breakdown, flame_summary, metrics_rows,
                              trace_to_jsonl)
from repro.overlay.chord import ChordRing


def _resilient_ring(seed=11, tracing=True, wall_clock=False):
    plan = FaultPlan(seed=seed, horizon=1000.0)
    plan.add(LossBurst(rate=0.4, mean_burst=30.0, mean_gap=30.0,
                       start=0.0, end=1000.0))
    fab = Fabric.create(seed=seed, faults=plan, tracing=tracing,
                        wall_clock=wall_clock,
                        retry=RetryPolicy(max_attempts=4),
                        breaker=CircuitBreaker(failure_threshold=6))
    ring = ChordRing(fab, successor_list_size=8, replication=2)
    for i in range(24):
        ring.add_node(f"p{i}")
    ring.build()
    return fab, ring


def _spans_by_id(tracer):
    return {s.span_id: s for s in tracer.spans}


class TestSpanNestingAcrossResilientLookup:
    def test_lookup_spans_nest_rpc_under_channel_under_lookup(self):
        fab, ring = _resilient_ring()
        fab.sim.run(until=50.0)  # inside the loss burst
        for i in range(8):
            ring.put("p0", f"key{i}", b"v")
        result = ring.lookup("p1", "key3")
        assert result.hops >= 1
        by_id = _spans_by_id(fab.tracer)
        lookups = [s for s in fab.tracer.spans if s.name == "chord.lookup"]
        assert lookups
        lookup = lookups[-1]
        # Every channel.call under this lookup parents net.rpc spans; the
        # retry loop means attempts >= 1 and the rpc spans chain upward.
        calls = [s for s in fab.tracer.spans if s.name == "channel.call"
                 and s.parent_id == lookup.span_id]
        assert calls, "resilient lookup must route through channel.call"
        for call in calls:
            rpcs = [s for s in fab.tracer.spans if s.name == "net.rpc"
                    and s.parent_id == call.span_id]
            assert len(rpcs) == call.attrs["attempts"]
            # parent chain: net.rpc -> channel.call -> chord.lookup
            assert by_id[call.parent_id].name == "chord.lookup"

    def test_retries_show_up_as_extra_rpc_children(self):
        fab, ring = _resilient_ring()
        fab.sim.run(until=50.0)
        for i in range(8):
            ring.put("p0", f"key{i}", b"v")
        fab.tracer.clear()
        for i in range(8):
            ring.lookup(f"p{i}", f"key{i}")
        calls = [s for s in fab.tracer.spans if s.name == "channel.call"]
        # Under a 40% loss burst some call somewhere must have retried.
        assert any(c.attrs["attempts"] > 1 for c in calls)
        retried = [c for c in calls if c.attrs["attempts"] > 1]
        for call in retried:
            rpcs = [s for s in fab.tracer.spans
                    if s.name == "net.rpc" and s.parent_id == call.span_id]
            assert len(rpcs) == call.attrs["attempts"]

    def test_lookup_cost_includes_rpc_and_backoff(self):
        fab, ring = _resilient_ring()
        fab.sim.run(until=50.0)
        ring.put("p0", "key", b"v")
        fab.tracer.clear()
        ring.lookup("p1", "key")
        lookup = [s for s in fab.tracer.spans
                  if s.name == "chord.lookup"][-1]
        children = [s for s in fab.tracer.spans
                    if s.parent_id == lookup.span_id]
        assert lookup.cost == pytest.approx(sum(c.cost for c in children))
        assert lookup.cost > 0.0


class TestDeterminism:
    def _run(self, wall_clock):
        fab, ring = _resilient_ring(seed=7, wall_clock=wall_clock)
        fab.sim.run(until=40.0)
        for i in range(6):
            ring.put(f"p{i}", f"key{i}", b"blob")
        for i in range(6):
            try:
                ring.get(f"p{(i + 3) % 24}", f"key{i}")
            except (LookupError_, StorageError):
                pass  # deterministic failures trace identically too
        return fab

    def test_two_runs_same_seed_byte_identical_jsonl(self):
        first = trace_to_jsonl(self._run(wall_clock=False).tracer)
        second = trace_to_jsonl(self._run(wall_clock=False).tracer)
        assert first == second
        assert first  # non-trivial trace

    def test_wall_clock_fields_segregated(self):
        fab = self._run(wall_clock=True)
        clean = trace_to_jsonl(fab.tracer)
        assert '"wall_ns"' not in clean
        with_wall = trace_to_jsonl(fab.tracer, include_wall=True)
        assert '"wall_ns"' in with_wall
        # The deterministic view is identical to a wall-clock-off run.
        assert clean == trace_to_jsonl(
            self._run(wall_clock=False).tracer)

    def test_jsonl_parses_and_references_valid_parents(self):
        fab = self._run(wall_clock=False)
        ids = set()
        for line in trace_to_jsonl(fab.tracer).splitlines():
            record = json.loads(line)
            ids.add(record["id"])
            if record["parent"] is not None:
                assert record["parent"] in ids or any(
                    s.span_id == record["parent"] for s in fab.tracer.spans)

    def test_flame_summary_and_breakdown_render(self):
        fab = self._run(wall_clock=False)
        text = flame_summary(fab.tracer)
        assert "chord.lookup" in text and "net.rpc" in text
        headers, rows = cost_breakdown(fab.tracer)
        assert headers[0] == "Phase"
        route = dict((r[0], r) for r in rows)["route hops"]
        assert route[1] > 0 and route[2] > 0
        assert route[3] == "-"  # no wall columns without wall_clock

    def test_metrics_rows_cover_failures(self):
        fab = self._run(wall_clock=False)
        headers, rows = metrics_rows(fab.metrics)
        names = [r[0] for r in rows]
        assert "net.messages" in names
        assert any(n == "net.rpc_failures" for n in names)
