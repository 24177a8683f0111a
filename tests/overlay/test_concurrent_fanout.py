"""End-to-end latency tests for the fan-out consumers.

Every fan-out pays its critical path: a quorum read settles at the R-th
*verified* response, a batched read per key at the R-th holder whose
copy of that key verified, and a hedged fetch at the earliest success.
The probes themselves (and so the messages and RNG draws) are exactly
those a sequential loop would issue.
"""

import pytest

from repro.dosn import DosnConfig, DosnNetwork
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.overlay.network import SimNode
from repro.storage2 import ReplicatedStore, ReplicationConfig

PEERS = [f"p{i}" for i in range(12)]


def make_store(seed=7):
    fabric = Fabric.create(seed=seed, tracing=True)
    ring = ChordRing(fabric, replication=3)
    for name in PEERS:
        ring.add_node(name)
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    return fabric, ring, store


def rpc_costs(tracer, kind):
    """The RTT of every ``kind`` RPC traced so far, in issue order."""
    return [span.cost for span in tracer.spans
            if span.name == "net.rpc" and span.attrs.get("kind") == kind]


class TestQuorumReadLatency:
    def test_concurrent_settles_at_rth_verified(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"payload")
        reader = next(n for n in PEERS if n not in store.placements["k"])
        fabric.tracer.clear()
        result = store.get(reader, "k")
        probes = rpc_costs(fabric.tracer, "quorum_read")
        assert len(probes) == result.verified == 3
        # R=2 of 3 honest holders: the read is in at the second-fastest
        # probe; the slowest is never on the critical path.
        assert result.elapsed == pytest.approx(sorted(probes)[1])

    def test_concurrent_strictly_below_serial_at_equal_messages(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"payload")
        reader = next(n for n in PEERS if n not in store.placements["k"])
        fabric.tracer.clear()
        fabric.network.stats.reset()
        result = store.get(reader, "k")
        probes = rpc_costs(fabric.tracer, "quorum_read")
        # the wire cost is a serial loop's (one request + one response
        # per holder), the latency strictly below that loop's bill
        assert fabric.network.stats.messages == 2 * len(probes) == 6
        assert result.payload == b"payload"
        assert 0.0 < result.elapsed < sum(probes)

    def test_dosn_default_read_settles_at_rth_verified(self):
        net = DosnNetwork(config=DosnConfig(
            seed=7, tracing=True,
            replication=ReplicationConfig(n=3, r=2, w=2)))
        net.add_users(PEERS)
        cid = net.post("p0", "hello")
        store = net.storage.quorum
        reader = next(n for n in PEERS if n not in store.placements[cid])
        net.tracer.clear()
        result = store.get(reader, cid)
        probes = rpc_costs(net.tracer, "quorum_read")
        assert result.verified == len(probes) == 3
        assert result.elapsed == pytest.approx(sorted(probes)[1])
        assert result.elapsed != pytest.approx(sum(probes))

    def test_batched_get_many_settles_per_key(self):
        fabric, ring, store = make_store()
        keys = [f"k{i}" for i in range(4)]
        for i, key in enumerate(keys):
            store.put("p0", key, b"v%d" % i)
        fabric.tracer.clear()
        results = store.get_many("p7", keys)
        assert [results[k].payload for k in keys] == \
            [b"v%d" % i for i in range(4)]
        probes = rpc_costs(fabric.tracer, "quorum_read_batch")
        for key in keys:
            # each key settles on one of the shared batch probes — the
            # R-th of its own holders — never on their sum
            assert min(abs(results[key].elapsed - cost) for cost in probes) \
                == pytest.approx(0.0)
            assert results[key].elapsed <= max(probes)


def hedged_cell(offline=()):
    fabric = Fabric.create(seed=11, loss_rate=0.15, resilient=True,
                           tracing=True)
    for name in PEERS:
        fabric.network.register(SimNode(name))
    for name in offline:
        fabric.network.nodes[name].online = False
    return fabric


class TestHedgedFanout:
    def test_winner_and_cancellation_semantics(self):
        fabric = hedged_cell(offline=("p1",))
        ok, winner, elapsed = fabric.channel.hedged(
            "p0", ["p1", "p2", "p3"], kind="fetch")
        assert ok
        assert winner in ("p2", "p3")  # p1 is offline: it cannot win
        assert elapsed > 0.0

    def test_concurrent_cheaper_than_serial_on_failover(self):
        # p1 and p2 offline: a serial loop would pay both timeouts in
        # full before asking p3; the hedges overlap them with p3's probe.
        fabric = hedged_cell(offline=("p1", "p2"))
        ok, winner, elapsed = fabric.channel.hedged(
            "p0", ["p1", "p2", "p3"], kind="fetch")
        assert ok and winner == "p3"
        probes = rpc_costs(fabric.tracer, "fetch")
        assert len(probes) == 3
        assert elapsed < sum(probes)
        assert elapsed == pytest.approx(
            2 * fabric.channel.hedge_delay + probes[2])

    def test_all_dead_fails(self):
        fabric = hedged_cell(offline=("p1", "p2", "p3"))
        ok, winner, elapsed = fabric.channel.hedged(
            "p0", ["p1", "p2", "p3"], kind="fetch")
        assert not ok
        assert winner is None
        assert elapsed > 0.0


class TestFanoutDeterminism:
    def _trace(self):
        fabric, ring, store = make_store(seed=2015)
        for i in range(5):
            store.put(f"p{i}", f"k{i}", b"blob-%d" % i)
        reads = [store.get(f"p{(i + 6) % 12}", f"k{i}") for i in range(5)]
        batch = store.get_many("p11", [f"k{i}" for i in range(5)])
        spans = [(s.name, s.parent_id, round(s.cost, 12),
                  sorted(s.attrs.items()))
                 for s in fabric.tracer.spans]
        payloads = ([r.payload for r in reads] +
                    [batch[k].payload for k in sorted(batch)])
        return spans, fabric.network.stats.summary(), payloads

    def test_two_runs_trace_identically(self):
        first = self._trace()
        assert self._trace() == first
        names = {name for name, *_ in first[0]}
        assert {"storage2.put.fanout", "storage2.get.fanout",
                "storage2.get_many.fanout"} <= names
