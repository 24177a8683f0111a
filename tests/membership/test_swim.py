"""Unit tests for the SWIM-style membership protocol."""

import networkx as nx
import pytest

from repro.adversary import AdversaryConfig, DefenseConfig
from repro.cache import CacheConfig
from repro.exceptions import OverlayError, SimulationError
from repro.fabric import Fabric
from repro.faults import AdaptiveTimeoutConfig
from repro.membership import (ALIVE, DEAD, SUSPECT, MembershipConfig,
                              SwimMembership)
from repro.membership.swim import _Update
from repro.overlay.gossip import GossipOverlay
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.network import SimNetwork, SimNode
from repro.overlay.simulator import FixedLatency, Simulator
from repro.storage2 import ReplicationConfig


def cluster(n=6, seed=7, loss=0.0, faults=None, config=None,
            resilient=False, start=True):
    fab = Fabric.create(seed=seed, latency=FixedLatency(0.02),
                        loss_rate=loss, faults=faults, resilient=resilient)
    membership = SwimMembership(fab, config or MembershipConfig())
    names = [f"n{i}" for i in range(n)]
    for name in names:
        fab.network.register(SimNode(name))
        membership.register(name)
    if start:
        membership.start()
    return fab, membership, names


def _kademlia(**kwargs):
    return KademliaOverlay(Fabric.create(seed=1), **kwargs)


def _gossip(**kwargs):
    return GossipOverlay(SimNetwork(Simulator(0)), nx.Graph(), **kwargs)


class TestConfigValidation:
    """Tunables fixed as constants are no longer accepted as keywords.

    Each case is (constructor, keyword, the value it used to default
    to); even that former default now raises ``TypeError``.  The first
    ten are :class:`MembershipConfig`'s; the rest are the same change in
    the sibling configs and overlays.
    """

    @pytest.mark.parametrize("bad", [
        (MembershipConfig, "protocol_period", 1.0),
        (MembershipConfig, "k_indirect", 3),
        (MembershipConfig, "suspect_phi", 3.0),
        (MembershipConfig, "confirm_phi", 8.0),
        (MembershipConfig, "piggyback_limit", 8),
        (MembershipConfig, "window", 16),
        (MembershipConfig, "initial_interval", 5.0),
        (MembershipConfig, "min_interval", 0.25),
        (MembershipConfig, "gossip_budget_factor", 3.0),
        (MembershipConfig, "reclaim_every", 4),
        (DefenseConfig, "certified_ids", True),
        (DefenseConfig, "disjoint_paths", 3),
        (DefenseConfig, "successor_redundancy", 3),
        (DefenseConfig, "quarantine", True),
        (DefenseConfig, "suspect_threshold", 2),
        (AdversaryConfig, "attack_rate", 1.0),
        (AdaptiveTimeoutConfig, "alpha", 0.2),
        (AdaptiveTimeoutConfig, "multiplier", 3.0),
        (AdaptiveTimeoutConfig, "floor", 0.25),
        (AdaptiveTimeoutConfig, "ceiling", 2.0),
        (CacheConfig, "prefetch_depth", 2),
        (ReplicationConfig, "read_repair", True),
        (_kademlia, "alpha", 3),
        (_gossip, "fanout", 3),
    ])
    def test_invalid_parameters_rejected(self, bad):
        factory, keyword, former_default = bad
        with pytest.raises(TypeError):
            factory(**{keyword: former_default})


class TestRoster:
    def test_duplicate_registration_rejected(self):
        _, membership, _ = cluster(start=False)
        with pytest.raises(OverlayError):
            membership.register("n0")

    def test_start_needs_two_members(self):
        fab = Fabric.create(seed=1)
        membership = SwimMembership(fab)
        fab.network.register(SimNode("solo"))
        membership.register("solo")
        with pytest.raises(SimulationError):
            membership.start()

    def test_one_membership_per_fabric(self):
        fab, _, _ = cluster()
        with pytest.raises(SimulationError):
            SwimMembership(fab)

    def test_views_are_cross_registered(self):
        _, membership, names = cluster(n=4, start=False)
        for name in names:
            view = membership.view_of(name)
            assert set(view.records) == set(names) - {name}
        assert membership.view_of("stranger") is None


class TestDetection:
    def test_crash_is_confirmed_dead_with_no_false_positives(self):
        fab, membership, names = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=400.0)
        assert membership.confirmed_dead("n3")
        assert membership.alive_members() == \
            [n for n in names if n != "n3"]
        false, total = membership.false_positive_stats()
        assert false == 0 and total >= 1
        assert all(e.peer == "n3" for e in membership.confirm_log)

    def test_confirm_respects_the_adaptive_bound(self):
        fab, membership, _ = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=400.0)
        for event in membership.confirm_log:
            assert event.silence >= event.bound
            assert event.phi >= membership.config.confirm_phi

    def test_confirmation_gossips_cluster_wide(self):
        fab, membership, names = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=500.0)
        buried_in = [n for n in names if n != "n3"
                     and membership.view_of(n).is_dead("n3")]
        assert len(buried_in) == 5

    def test_fair_weather_run_stays_silent(self):
        fab, membership, _ = cluster(n=8)
        fab.sim.run(until=300.0)
        assert membership.confirm_log == []
        assert membership._dead == set()
        assert fab.metrics.get_counter_value(
            "membership.confirms", source="phi") == 0

    def test_on_confirm_fires_once_per_death(self):
        fab, membership, _ = cluster(n=6)
        deaths = []
        membership.on_confirm(lambda peer, now: deaths.append(peer))
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=500.0)
        assert deaths == ["n3"]

    def test_rejoin_revives_and_clears_admin_death(self):
        fab, membership, _ = cluster(n=6)
        fab.sim.run(until=60.0)
        fab.network.node("n3").go_offline()
        fab.sim.run(until=400.0)
        assert membership.confirmed_dead("n3")
        fab.network.node("n3").go_online()
        fab.sim.run(until=800.0)
        assert not membership.confirmed_dead("n3")
        assert "n3" in membership.alive_members()
        assert fab.metrics.get_counter_value("membership.rejoins") > 0
        # and the returnee's own absence produced no fresh confirmations
        false, _ = membership.false_positive_stats()
        assert false == 0


class TestMergeRules:
    """SWIM's update-override rules, applied straight to one view."""

    def setup_method(self):
        _, self.membership, _ = cluster(n=3, start=False)
        self.view = self.membership.view_of("n0")
        self.record = self.view.records["n1"]

    def _recv(self, state, incarnation, heard_at=1.0):
        self.view.receive(
            _Update("n1", state, incarnation, heard_at, budget=3), now=2.0)

    def test_suspect_beats_alive_at_equal_incarnation(self):
        self._recv(SUSPECT, 0)
        assert self.record.state == SUSPECT

    def test_alive_needs_higher_incarnation_to_refute_suspect(self):
        self._recv(SUSPECT, 0)
        self._recv(ALIVE, 0)
        assert self.record.state == SUSPECT  # same incarnation: no refute
        self._recv(ALIVE, 1)
        assert self.record.state == ALIVE
        assert self.record.incarnation == 1

    def test_dead_is_final_at_any_equal_incarnation(self):
        self._recv(DEAD, 0)
        self._recv(ALIVE, 0)
        self._recv(SUSPECT, 5)
        assert self.record.state == DEAD

    def test_higher_incarnation_alive_revives_the_dead(self):
        self._recv(DEAD, 0)
        assert self.membership.confirmed_dead("n1")
        self._recv(ALIVE, 1)
        assert self.record.state == ALIVE
        assert not self.membership.confirmed_dead("n1")

    def test_alive_news_counts_as_phi_evidence(self):
        before = self.record.estimator.last_evidence
        self._recv(ALIVE, 0, heard_at=before + 7.5)
        assert self.record.estimator.last_evidence == before + 7.5

    def test_owner_refutes_rumors_about_itself(self):
        rumor = _Update("n0", SUSPECT, 0, 1.0, budget=3)
        self.view.receive(rumor, now=2.0)
        assert self.view.self_incarnation == 1
        refute = [u for u in self.view.queue if u.peer == "n0"]
        assert refute and refute[-1].state == ALIVE
        assert refute[-1].incarnation == 1

    def test_unknown_peers_are_ignored(self):
        self.view.receive(_Update("ghost", DEAD, 0, 1.0, budget=3), now=2.0)
        assert "ghost" not in self.view.records

    def test_direct_evidence_revives_without_incarnation_bump(self):
        self._recv(SUSPECT, 0)
        self.view.direct_evidence("n1", 0, now=3.0)
        assert self.record.state == ALIVE
        assert self.record.incarnation == 0


class TestHealthOrdering:
    def test_dead_sort_last_and_suspects_in_between(self):
        _, membership, _ = cluster(n=4, start=False)
        view = membership.view_of("n0")
        view.records["n1"].state = DEAD
        view.records["n2"].state = SUSPECT
        ordered = membership.order_by_health("n0", ["n1", "n2", "n3"])
        assert ordered == ["n3", "n2", "n1"]

    def test_unknown_observer_passthrough(self):
        _, membership, _ = cluster(n=3, start=False)
        assert membership.order_by_health("stranger", ["n2", "n0"]) == \
            ["n2", "n0"]

    def test_health_scores_are_bounded(self):
        fab, membership, names = cluster(n=4)
        fab.sim.run(until=50.0)
        view = membership.view_of("n0")
        now = fab.sim.now
        for peer in names[1:]:
            assert 0.0 <= view.health(peer, now) <= 1.0


class TestReclaim:
    """Graveyard probing ("gossip to the dead") after a partition heals."""

    def _partitioned_cluster(self):
        from repro.faults import FaultPlan, Partition
        plan = FaultPlan(seed=3).add(
            Partition(groups=[frozenset({"n0", "n1", "n2", "n3"})],
                      start=30.0, end=230.0))
        return cluster(n=8, faults=plan)

    def test_healed_partition_is_fully_reclaimed(self):
        fab, membership, names = self._partitioned_cluster()
        fab.sim.run(until=220.0)
        # mutual burial across the cut: nobody probes the "dead" side,
        # so without reclaim the views could never converge again
        assert membership._dead
        fab.sim.run(until=400.0)
        assert membership._dead == set()
        for name in names:
            assert membership.view_of(name).dead_peers() == []
        assert fab.metrics.get_counter_value(
            "membership.reclaim_pings") > 0

    def test_reclaimed_peer_outbids_its_burial(self):
        """Direct-contact revival must raise the peer's incarnation past
        the buried record, or DEAD stays final in every other view."""
        fab, membership, _ = self._partitioned_cluster()
        fab.sim.run(until=220.0)
        buried = {peer: max(membership.view_of(o).records[peer].incarnation
                            for o in membership.views if o != peer)
                  for peer in membership._dead}
        fab.sim.run(until=400.0)
        for peer, incarnation in buried.items():
            assert membership.view_of(peer).self_incarnation > incarnation


class TestDeterminism:
    def _trace(self, seed):
        fab, membership, _ = cluster(n=8, seed=seed, loss=0.1)
        fab.sim.run(until=60.0)
        fab.network.node("n2").go_offline()
        fab.network.node("n5").go_offline()
        fab.sim.run(until=500.0)
        return (repr(membership.confirm_log), sorted(membership._dead),
                fab.network.stats.messages,
                fab.metrics.get_counter_value("membership.pings"))

    def test_same_seed_same_history(self):
        assert self._trace(11) == self._trace(11)

    def test_different_seed_different_history(self):
        assert self._trace(11) != self._trace(12)
