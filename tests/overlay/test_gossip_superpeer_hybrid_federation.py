"""Tests for the unstructured, semi-structured, hybrid and federated overlays."""

import networkx as nx
import pytest

from repro.exceptions import LookupError_, OverlayError
from repro.overlay.federation import FederatedNetwork
from repro.overlay.gossip import GossipOverlay
from repro.overlay.hybrid import HybridOverlay
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import FixedLatency, Simulator
from repro.overlay.superpeer import SuperPeerOverlay


def social(n=60, seed=0):
    graph = nx.barabasi_albert_graph(n, 3, seed=seed)
    return nx.relabel_nodes(graph, {i: f"u{i}" for i in graph.nodes})


class TestGossip:
    def build(self, n=60, seed=0):
        net = SimNetwork(Simulator(seed), latency=FixedLatency(0.01))
        overlay = GossipOverlay(net, social(n, seed))
        return net, overlay

    def test_flood_finds_held_key(self):
        net, overlay = self.build()
        overlay.place_key("content", "u30")
        result = overlay.flood_search("u0", "content", ttl=6)
        assert result.found and "u30" in result.holders_reached

    def test_flood_misses_absent_key(self):
        net, overlay = self.build()
        result = overlay.flood_search("u0", "nothing", ttl=4)
        assert not result.found

    def test_flood_ttl_bounds_reach(self):
        net, overlay = self.build()
        overlay.place_key("far", "u59")
        cheap = overlay.flood_search("u0", "far", ttl=1)
        expensive = overlay.flood_search("u1", "far", ttl=6)
        assert cheap.messages < expensive.messages

    def test_duplicate_suppression(self):
        net, overlay = self.build()
        result = overlay.flood_search("u0", "ghost", ttl=10)
        # Without suppression a dense graph floods exponentially; with it,
        # messages are bounded by ~edges * 2.
        edges = overlay.graph.number_of_edges()
        assert result.messages <= 2 * edges + len(overlay.nodes)

    def test_gossip_reaches_most_nodes(self):
        net, overlay = self.build(n=100)
        overlay.gossip_disseminate("u0", "rumor")
        assert overlay.coverage("rumor") > 0.85

    def test_gossip_timestamps_monotone_from_origin(self):
        net, overlay = self.build()
        arrivals = overlay.gossip_disseminate("u0", "r1")
        # the origin's own copy arrives after one (self-)latency hop
        assert arrivals["u0"] == pytest.approx(0.01)
        assert all(t >= arrivals["u0"] for t in arrivals.values())

    def test_unknown_start_rejected(self):
        net, overlay = self.build()
        with pytest.raises(OverlayError):
            overlay.flood_search("ghost", "k")
        with pytest.raises(OverlayError):
            overlay.gossip_disseminate("ghost", "r")

    def test_offline_nodes_do_not_receive(self):
        net, overlay = self.build()
        overlay.nodes["u5"].online = False
        overlay.gossip_disseminate("u0", "r2")
        assert "r2" not in overlay.nodes["u5"].received

    def test_gossip_skips_offline_peers_without_paying_messages(self):
        """Regression: rumors used to be sent (and charged) toward
        offline peers, then dropped at delivery time."""
        net, overlay = self.build()
        for name in ("u5", "u9", "u13"):
            overlay.nodes[name].online = False
        overlay.gossip_disseminate("u0", "r3")
        assert net.stats.drops == 0

    def test_flood_skips_offline_peers_without_paying_messages(self):
        net, overlay = self.build()
        overlay.place_key("content", "u30")
        for name in ("u5", "u9", "u13"):
            overlay.nodes[name].online = False
        result = overlay.flood_search("u0", "content", ttl=6)
        assert result.found
        assert net.stats.drops == 0
        assert "u5" not in result.holders_reached

    def test_offline_start_and_origin_rejected(self):
        net, overlay = self.build()
        overlay.nodes["u0"].online = False
        with pytest.raises(OverlayError):
            overlay.flood_search("u0", "k")
        with pytest.raises(OverlayError):
            overlay.gossip_disseminate("u0", "r")


class TestSuperPeer:
    def build(self, peers=40, supers=4, seed=0):
        net = SimNetwork(Simulator(seed))
        overlay = SuperPeerOverlay(net)
        for i in range(supers):
            overlay.add_super_peer(f"sp{i}")
        for i in range(peers):
            overlay.add_peer(f"n{i}")
        return net, overlay

    def test_lookup_bounded_hops(self):
        net, overlay = self.build()
        overlay.publish("n3", "doc", b"x")
        for reader in ("n0", "n17", "n39"):
            value, result = overlay.fetch(reader, "doc")
            assert value == b"x"
            assert result.hops <= 3

    def test_peers_before_supers_rejected(self):
        net = SimNetwork(Simulator(0))
        overlay = SuperPeerOverlay(net)
        with pytest.raises(OverlayError):
            overlay.add_peer("lonely")

    def test_unindexed_key(self):
        net, overlay = self.build()
        with pytest.raises(LookupError_):
            overlay.lookup("n0", "ghost")

    def test_super_peer_failure_breaks_members(self):
        net, overlay = self.build()
        overlay.publish("n3", "doc", b"x")
        sp = overlay.peers["n3"].super_peer
        overlay.super_peers[sp].online = False
        with pytest.raises(LookupError_):
            overlay.lookup("n3", "doc")

    def test_holder_failure_raises(self):
        net, overlay = self.build()
        overlay.publish("n3", "doc", b"x")
        overlay.peers["n3"].online = False
        with pytest.raises(LookupError_):
            overlay.fetch("n0", "doc")

    def test_uptime_aware_placement(self):
        net, overlay = self.build()
        fractions = {f"n{i}": i / 40.0 for i in range(40)}
        overlay.report_uptimes(fractions)
        best = overlay.best_replica_hosts(3)
        assert best == ["n39", "n38", "n37"]

    def test_best_hosts_respects_exclusions(self):
        net, overlay = self.build()
        overlay.report_uptimes({f"n{i}": i / 40.0 for i in range(40)})
        best = overlay.best_replica_hosts(2, exclude=["n39"])
        assert "n39" not in best


class TestHybrid:
    def build(self, n=60, seed=0):
        from repro.fabric import Fabric
        fab = Fabric.create(seed=seed)
        net = fab.network
        overlay = HybridOverlay(fab, social(n, seed), cache_capacity=16)
        return net, overlay

    def test_first_fetch_may_use_dht_then_cache(self):
        net, overlay = self.build()
        overlay.publish("u0", "post", b"payload")
        # pick a reader far from u0 socially so neighbour probes miss
        reader = "u59"
        first = overlay.fetch(reader, "post")
        assert first.value == b"payload"
        second = overlay.fetch(reader, "post")
        assert second.source == "cache" and second.rpcs == 0

    def test_popular_content_gets_cheaper(self):
        """The Cuckoo claim: popular items resolve via the unstructured
        phase once caches warm up."""
        net, overlay = self.build()
        overlay.publish("u0", "hot", b"x")
        total_dht_before = overlay.dht_fetches
        readers = [f"u{i}" for i in range(1, 40)]
        for reader in readers:
            overlay.fetch(reader, "hot")
        # re-read: now everything is cached somewhere nearby
        for reader in readers:
            overlay.fetch(reader, "hot")
        assert overlay.cache_hit_rate() > 0.5

    def test_cache_eviction(self):
        net, overlay = self.build()
        for i in range(40):
            overlay.publish("u0", f"item{i}", b"v")
        assert len(overlay.caches["u0"]) <= 16

    def test_unknown_reader_rejected(self):
        net, overlay = self.build()
        with pytest.raises(OverlayError):
            overlay.fetch("ghost", "k")


class TestFederation:
    def build(self, pods=4, users=30, seed=0):
        net = SimNetwork(Simulator(seed))
        federation = FederatedNetwork(net, [f"pod{i}" for i in range(pods)])
        for i in range(users):
            federation.register_user(f"fu{i}")
        return net, federation

    def test_post_reaches_recipients(self):
        net, fed = self.build()
        fed.post("fu0", "c1", b"hello", [f"fu{i}" for i in range(1, 10)])
        for reader in ("fu1", "fu5", "fu9"):
            assert fed.fetch(reader, "c1") == b"hello"

    def test_non_recipient_pod_lacks_content(self):
        net, fed = self.build(pods=8, users=40)
        delivery = fed.post("fu0", "c1", b"x", ["fu1"])
        hosting = set(delivery.servers_stored)
        for name, server in fed.servers.items():
            if name not in hosting:
                assert "c1" not in server.content

    def test_no_server_has_global_view(self):
        net, fed = self.build(pods=6, users=60)
        import random
        rng = random.Random(0)
        total_edges = 0
        for i in range(40):
            author = f"fu{rng.randrange(60)}"
            recipients = [f"fu{rng.randrange(60)}" for _ in range(3)]
            recipients = [r for r in recipients if r != author]
            fed.post(author, f"c{i}", b"x", recipients)
            total_edges += len(set(recipients))
        content_frac, edge_frac = fed.max_view_fraction(40, total_edges)
        assert content_frac < 1.0

    def test_hash_assignment_balanced(self):
        net, fed = self.build(pods=4, users=200)
        sizes = [len(s.users) for s in fed.servers.values()]
        assert min(sizes) > 20  # roughly balanced

    def test_unregistered_user_rejected(self):
        net, fed = self.build()
        with pytest.raises(OverlayError):
            fed.post("ghost", "c", b"x", [])

    def test_fetch_unfederated_content(self):
        net, fed = self.build(pods=8, users=40)
        delivery = fed.post("fu0", "c1", b"x", [])
        outside = [f"fu{i}" for i in range(40)
                   if fed.home[f"fu{i}"] not in delivery.servers_stored]
        if outside:
            with pytest.raises(LookupError_):
                fed.fetch(outside[0], "c1")

    def test_server_view_contents(self):
        net, fed = self.build()
        fed.post("fu0", "c1", b"x", ["fu1"])
        home = fed.home["fu0"]
        view = fed.server_view(home)
        assert "c1" in view["content_ids"]
        assert ("fu0", "fu1") in view["edges"]
