"""Experiment E17 — fan-out latency on the critical-path model.

Every fan-out in the reproduction (quorum probes, hedged replica
fetches, batched feed fetches) issues its requests together, the way a
real client overlaps independent requests, and pays the critical path
rather than the sum of its round trips.  That latency is what the
paper's availability-vs-cost trade-off (replication, quorum privacy) is
priced against.  E17 reports it for three workloads:

* **quorum reads** (R=2 of N=3 verified) — each read settles at the 2nd
  verified response; the probe-sum column shows what the same probes
  would cost back to back;
* **hedged lookups** under loss — staggered launches every
  ``hedge_delay``, the earliest success wins;
* **cold/warm batched feeds** — the feed inherits the backend's
  overlapped holder probes.

Determinism: the quorum cell is re-run and must settle byte-identically
(settle order is fixed by completion time, then issue sequence).
"""

from __future__ import annotations

import statistics

from _reporting import report_table
from repro.cache import CacheConfig
from repro.dosn import DosnConfig, DosnNetwork
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.overlay.network import SimNode
from repro.storage2 import ReplicatedStore, ReplicationConfig
from repro.workloads import generate_posts, social_graph

SEED = 2017

N = 64         # chord peers (quorum cells)
KEYS = 24      # stored objects
READS = 48     # quorum reads measured
TRIALS = 40    # hedged lookups measured
USERS = 300    # feed cells
POSTS = 300
READERS = 20


def _percentiles(values):
    ordered = sorted(values)
    p50 = ordered[len(ordered) // 2]
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return p50, p99


def _lat_cells(values):
    p50, p99 = _percentiles(values)
    return [f"{statistics.mean(values):.4f}", f"{p50:.4f}", f"{p99:.4f}"]


# -- quorum reads (the headline cell) ------------------------------------------


def _quorum_cell():
    """One quorum-read workload: (stats summary, elapsed, probe sums)."""
    fab = Fabric.create(seed=SEED, tracing=True)
    ring = ChordRing(fab, successor_list_size=8, replication=3)
    for i in range(N):
        ring.add_node(f"p{i}")
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    for i in range(KEYS):
        store.put(f"p{(3 * i + 1) % N}", f"key{i}", b"blob-%d" % i)
    fab.network.stats.reset()
    elapsed, probe_sums = [], []
    for j in range(READS):
        fab.tracer.clear()
        result = store.get(f"p{(2 * j + 1) % N}", f"key{j % KEYS}")
        elapsed.append(result.elapsed)
        probe_sums.append(sum(
            span.cost for span in fab.tracer.spans
            if span.name == "net.rpc"
            and span.attrs.get("kind") == "quorum_read"))
    return fab.network.stats.summary(), elapsed, probe_sums


def test_quorum_read_critical_path(benchmark):
    """E17 headline: quorum reads pay the critical path."""
    stats, elapsed, probe_sums = benchmark.pedantic(
        _quorum_cell, rounds=1, iterations=1)

    # R=2 of 3: the read settles before its slowest probe, every time.
    assert all(e < s for e, s in zip(elapsed, probe_sums))
    mean, probe_mean = statistics.mean(elapsed), statistics.mean(probe_sums)
    report_table(
        "E17_latency_fanout",
        "E17 — verified quorum reads (R=2 of N=3): critical path",
        ["Mean lat (s)", "p50 (s)", "p99 (s)", "Probe sum (s)",
         "Msgs/read", "Bytes/read"],
        [_lat_cells(elapsed) + [f"{probe_mean:.4f}",
                                f"{stats['messages'] / READS:.1f}",
                                f"{stats['bytes'] / READS:.0f}"]],
        note=(f"Each read settles at the 2nd verified response; the "
              f"same probes back to back would sum to "
              f"{probe_mean / mean:.1f}x the mean latency.  Read-repair "
              "pushes are background traffic."))


def test_concurrent_settle_deterministic(benchmark):
    """E17b: two runs settle byte-identically (seeded)."""

    def run_twice():
        return _quorum_cell(), _quorum_cell()

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert repr(first) == repr(second)


# -- hedged lookups under loss --------------------------------------------------


def _hedged_cell():
    fab = Fabric.create(seed=SEED + 1, loss_rate=0.2, resilient=True)
    names = [f"h{i}" for i in range(12)]
    for name in names:
        fab.network.register(SimNode(name))
    for i in (2, 5):
        fab.network.nodes[f"h{i}"].online = False
    fab.network.stats.reset()
    elapsed = []
    successes = 0
    for j in range(TRIALS):
        dsts = [names[(j + k) % len(names)] for k in range(3)]
        ok, _winner, t = fab.channel.hedged(f"r{j}", dsts,
                                            kind="replica_fetch")
        successes += 1 if ok else 0
        elapsed.append(t)
    return fab.network.stats.summary(), elapsed, successes


def test_hedged_lookup_latency(benchmark):
    """E17c: staggered hedging across three replica holders."""
    stats, elapsed, successes = benchmark.pedantic(
        _hedged_cell, rounds=1, iterations=1)
    assert successes > 0
    report_table(
        "E17c_hedged",
        "E17c — hedged replica lookups under 20% loss",
        ["Mean lat (s)", "p50 (s)", "p99 (s)", "Success", "Hedges",
         "Msgs/lookup"],
        [_lat_cells(elapsed) + [f"{successes}/{TRIALS}", stats["hedges"],
                                f"{stats['messages'] / TRIALS:.1f}"]],
        note=("Launches are staggered every hedge_delay=0.05s and stop "
              "once an earlier request has won; a lookup pays the "
              "winner's completion offset (every probe's, on failure)."))


# -- batched feeds ---------------------------------------------------------------


def _feed_once(net, reader):
    before_msgs = net.network.stats.messages
    before_spans = len(net.tracer.spans)
    report = net.feed(reader, limit_per_friend=2)
    assert report.clean
    messages = net.network.stats.messages - before_msgs
    cost = sum(span.cost for span in net.tracer.spans[before_spans:]
               if span.parent_id is None)
    return messages, cost


def _feed_cell():
    graph = social_graph(USERS, kind="ws", seed=SEED)
    net = DosnNetwork(config=DosnConfig(
        architecture="dht", seed=SEED, tracing=True,
        cache=CacheConfig(capacity_per_reader=0)))  # batched, uncached
    for node in graph.nodes:
        net.add_user(str(node))
    net.apply_social_graph(graph)
    for post in generate_posts(graph, POSTS, seed=SEED + 1):
        net.post(post.author, post.text)
    readers = sorted(net.users)[:READERS]
    cold = {"msgs": [], "cost": []}
    warm = {"msgs": [], "cost": []}
    for phase in (cold, warm):
        for reader in readers:
            messages, cost = _feed_once(net, reader)
            phase["msgs"].append(messages)
            phase["cost"].append(cost)
    return cold, warm


def test_feed_fanout_latency(benchmark):
    """E17d: batched feeds inherit the backend's overlapped fan-out."""
    cold, warm = benchmark.pedantic(_feed_cell, rounds=1, iterations=1)

    # Uncached, the warm pass repeats the cold pass's probe plan.
    assert cold["msgs"] == warm["msgs"]
    cold_p50, cold_p99 = _percentiles(cold["cost"])
    warm_p50, warm_p99 = _percentiles(warm["cost"])
    report_table(
        "E17d_feed_fanout",
        "E17d — batched feed assembly: virtual cost per feed",
        ["Cold msg/feed", "Warm msg/feed", "Cold p50 s", "Cold p99 s",
         "Warm p50 s", "Warm p99 s"],
        [[f"{statistics.mean(cold['msgs']):.1f}",
          f"{statistics.mean(warm['msgs']):.1f}",
          f"{cold_p50:.4f}", f"{cold_p99:.4f}",
          f"{warm_p50:.4f}", f"{warm_p99:.4f}"]],
        note=("The batched fetch's per-holder probes overlap, so a feed "
              "costs roughly its slowest holder group instead of the "
              "sum over groups."))
