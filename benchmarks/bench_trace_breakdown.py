"""Experiment E13 — where does a social operation's time actually go?

The earlier experiments report end-to-end costs (E5 lookup RTTs, E2
crypto op counts); E13 decomposes them.  A traced DOSN run attributes
every accounted virtual second of a post/feed workload to a phase —
overlay route hops, storage fetch/replication RPCs, and the crypto
stages (encrypt/sign on write, decrypt/verify on read) — using the real
span tree from :mod:`repro.obs`, not estimates.

Acceptance gates baked into the tests:

* the breakdown covers all four headline phases with non-zero cost;
* two runs at the same seed serialize **byte-identical** JSONL traces
  (the observability layer is a pure function of the seed);
* the no-op tracer run does the same workload without recording a span
  (the disabled path stays near-zero-cost).
"""

from __future__ import annotations

from _reporting import report_observability, report_table
from repro.dosn import DosnConfig, DosnNetwork
from repro.obs.export import cost_breakdown, trace_to_jsonl
from repro.workloads import generate_posts, social_graph

USERS = 48
POSTS = 80
SEED = 131


def _traced_workload(tracing=True):
    """Run the standard social workload on a traced DHT network."""
    graph = social_graph(USERS, kind="ws", seed=SEED)
    net = DosnNetwork(config=DosnConfig(
        architecture="dht", seed=SEED, replication=2, tracing=tracing))
    for node in graph.nodes:
        net.add_user(str(node))
    net.apply_social_graph(graph)
    for post in generate_posts(graph, POSTS, seed=SEED + 1):
        net.post(post.author, post.text)
    for reader in sorted(net.users)[: USERS // 4]:
        net.feed(reader, limit_per_friend=2)
    return net


def test_cost_breakdown(benchmark):
    """E13: per-phase cost of the post/feed workload, from real spans."""

    def run():
        net = _traced_workload()
        _, rows = cost_breakdown(net.tracer)
        return net, rows

    net, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_phase = {row[0]: row for row in rows}
    for phase in ("route hops", "storage fetch", "decrypt", "verify",
                  "encrypt", "sign"):
        assert by_phase[phase][1] > 0, f"no spans attributed to {phase}"
        assert by_phase[phase][2] > 0, f"zero cost attributed to {phase}"
    # Routing dominates storage I/O in a log(n)-hop DHT.
    assert by_phase["route hops"][2] > by_phase["storage fetch"][2]
    report_observability(
        "E13_breakdown",
        "E13 — virtual-time breakdown of the DHT post/feed workload",
        net.tracer, metrics=None,
        note=("Route hops vs storage fetch come from net.rpc spans "
              "(classified by message kind); crypto phases carry the "
              "deterministic CPU-cost model of repro.dosn.user."))


def test_trace_determinism(benchmark):
    """E13b: the trace is a pure function of the seed — byte-identical."""

    def run_twice():
        first = trace_to_jsonl(_traced_workload().tracer)
        second = trace_to_jsonl(_traced_workload().tracer)
        return first, second

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert first == second
    assert first.count("\n") > 500
    report_table(
        "E13b_determinism", "E13b — trace determinism at a fixed seed",
        ["Runs compared", "Spans", "JSONL bytes", "Identical"],
        [[2, first.count("\n"), len(first.encode()), first == second]],
        note="wall_ns fields are segregated and excluded from the diff.")


def test_noop_tracer_records_nothing(benchmark):
    """E13c: tracing off = the default no-op tracer, zero spans stored."""

    def run():
        return _traced_workload(tracing=False)

    net = benchmark.pedantic(run, rounds=1, iterations=1)
    assert net.tracer.enabled is False
    assert net.tracer.spans == []
