"""The self-healing store: quorum semantics, Byzantine holders, repair."""

import pytest

from repro.exceptions import (QuorumWriteError, ReplicaIntegrityError,
                              StorageError)
from repro.fabric import Fabric
from repro.faults import CorruptBlob, Equivocate, FaultPlan, StaleServe
from repro.storage2 import (AntiEntropyDaemon, ReplicatedStore,
                            ReplicationConfig)
from repro.overlay.chord import ChordRing

PEERS = [f"p{i}" for i in range(10)]


def make_store(seed=7, plan=None, config=None, peers=PEERS):
    fabric = Fabric.create(seed=seed, faults=plan)
    ring = ChordRing(fabric, replication=3)
    for name in peers:
        ring.add_node(name)
    ring.build()
    store = ReplicatedStore(ring,
                            config or ReplicationConfig(n=3, r=2, w=2))
    return fabric, ring, store


def reader_for(ring, holders):
    """A ring member who is not a replica holder of the key."""
    return next(n for n in PEERS if n not in holders)


class TestQuorumWrites:
    def test_put_stores_on_n_holders_and_advances_versions(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        assert len(holders) == 3
        for holder in holders:
            assert "k" in ring.nodes[holder].store
        record = store.put("p0", "k", b"v2")
        assert record.version == 2
        assert store.latest_version("k") == 2

    def test_write_quorum_failure_raises_and_keeps_chain_state(self):
        _, ring, store = make_store()
        holders = ring.replica_set("k")[:3]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        writer = reader_for(ring, holders)
        with pytest.raises(QuorumWriteError):
            store.put(writer, "k", b"v1")
        assert store.latest_version("k") == 0
        for holder in holders[1:]:
            ring.nodes[holder].go_online()
        record = store.put(writer, "k", b"v1")
        assert record.version == 1  # the retry re-seals the same version


class TestVerifiedReads:
    def test_corrupting_holder_is_rejected_and_counted(self):
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders={holders[0]}))
        fabric, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"payload")
        result = store.get(reader_for(ring, holders), "k")
        assert result.payload == b"payload"
        assert result.rejected == 1
        assert result.verified == 2
        assert fabric.metrics.get_counter_value(
            "storage.byzantine_rejects") == 1

    @pytest.mark.parametrize("fault_cls", [StaleServe, Equivocate])
    def test_stale_replay_loses_to_newer_verified_version(self, fault_cls):
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(fault_cls(holders={holders[0]}))
        _, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"v1")
        store.put("p0", "k", b"v2")
        for _ in range(3):  # whatever old version is replayed, v2 wins
            result = store.get(reader_for(ring, holders), "k")
            assert result.payload == b"v2"
            assert result.version == 2

    def test_all_holders_byzantine_raises_replica_integrity_error(self):
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders=set(holders)))
        _, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"payload")
        with pytest.raises(ReplicaIntegrityError):
            store.get(reader_for(ring, holders), "k")

    def test_unreachable_holders_raise_storage_error(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"payload")
        for holder in store.placements["k"]:
            ring.nodes[holder].go_offline()
        with pytest.raises(StorageError):
            store.get(reader_for(ring, store.placements["k"]), "k")

    def test_short_read_quorum_raises_storage_error(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"payload")
        holders = store.placements["k"]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        with pytest.raises(StorageError, match="quorum"):
            store.get(reader_for(ring, holders), "k")

    def test_unknown_key_raises_storage_error(self):
        _, ring, store = make_store()
        with pytest.raises(StorageError):
            store.get("p0", "nope")

    def test_key_scoped_fault_leaves_other_keys_honest(self):
        """A liar scoped to one key serves co-located keys untouched."""
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(
            CorruptBlob(holders={holders[0]}, keys={"other"}))
        fabric, ring, store = make_store(plan=plan)
        record = store.put("p0", "k", b"payload")
        assert store.serve(holders[0], "p9", "k") == record.encode()
        result = store.get(reader_for(ring, holders), "k")
        assert result.rejected == 0 and result.verified == 3

    def test_bare_read_accepts_what_quorum_rejects(self):
        """The E14 baseline: read_any trusts tampered first responses."""
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders={holders[0]}))
        _, ring, store = make_store(plan=plan)
        record = store.put("p0", "k", b"payload")
        served = store.read_any(reader_for(ring, holders), "k")
        assert served != record.encode()  # garbled, yet returned


class TestReadRepair:
    def test_holder_that_missed_a_write_is_repaired_on_read(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        laggard = holders[-1]
        ring.nodes[laggard].go_offline()
        store.put("p0", "k", b"v2")  # w=2 acks still reachable
        ring.nodes[laggard].go_online()
        result = store.get(reader_for(ring, holders), "k")
        assert result.version == 2
        assert result.repaired == 1
        assert fabric.metrics.get_counter_value("storage.read_repairs") == 1
        repaired = store._verify("k", ring.nodes[laggard].store["k"])
        assert repaired.version == 2


class TestAntiEntropy:
    def test_sync_round_pulls_missed_writes(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        laggard = holders[-1]
        ring.nodes[laggard].go_offline()
        store.put("p0", "k", b"v2")
        ring.nodes[laggard].go_online()
        daemon = AntiEntropyDaemon(store, interval=60.0)
        daemon.run_round()
        assert store._verify("k", ring.nodes[laggard].store["k"]).version == 2
        assert fabric.metrics.get_counter_value("storage.repair_pulls") >= 1

    def test_re_replication_after_state_losing_crash(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        before = list(store.placements["k"])
        dead = before[0]
        ring.nodes[dead].crash(lose_state=True)
        daemon = AntiEntropyDaemon(store, interval=60.0)
        daemon.run_round()
        after = store.placements["k"]
        assert dead not in after
        assert len(after) == 3
        newcomer = next(h for h in after if h not in before)
        assert store._verify("k", ring.nodes[newcomer].store["k"]).version == 1
        assert fabric.metrics.get_counter_value(
            "storage.re_replications") >= 1

    def test_daemon_ticks_on_the_simulator_clock(self):
        fabric, ring, store = make_store()
        store.put("p0", "k", b"v1")
        daemon = AntiEntropyDaemon(store, interval=100.0)
        daemon.start()
        fabric.sim.run(until=350.0)
        assert daemon.rounds == 3
        assert fabric.metrics.get_counter_value("storage.repair_rounds") == 3

    def test_total_wipeout_is_honest_data_loss(self):
        """With every holder's state gone there is nothing to clone."""
        _, ring, store = make_store()
        store.put("p0", "k", b"v1")
        for holder in store.placements["k"]:
            ring.nodes[holder].crash(lose_state=True)
        AntiEntropyDaemon(store, interval=60.0).run_round()
        for holder in store.placements["k"]:
            node = ring.nodes.get(holder)
            assert node is None or "k" not in node.store


class TestDeterminism:
    def _run(self):
        holders = make_store()[1].replica_set("k")[:3]
        plan = (FaultPlan(seed=3)
                .add(StaleServe(holders={holders[0]}))
                .add(CorruptBlob(holders={holders[1]}, rate=0.5)))
        fabric, ring, store = make_store(plan=plan)
        store.put("p0", "k", b"v1")
        store.put("p0", "k", b"v2")
        daemon = AntiEntropyDaemon(store, interval=50.0)
        daemon.start()
        fabric.sim.run(until=120.0)
        reader = reader_for(ring, holders)
        outcomes = []
        for _ in range(5):
            result = store.get(reader, "k")
            outcomes.append((result.version, result.verified,
                             result.rejected, result.repaired))
        return (outcomes,
                fabric.metrics.get_counter_value("storage.byzantine_rejects"),
                fabric.network.stats.messages)

    def test_same_seed_same_byzantine_behaviour(self):
        assert self._run() == self._run()


class TestDegradedReads:
    """Graceful degradation: below-quorum reads serve verified-but-flagged."""

    CONFIG = ReplicationConfig(n=3, r=2, w=2, degraded_reads=True)

    def test_single_verified_copy_is_served_flagged(self):
        fabric, ring, store = make_store(config=self.CONFIG)
        store.put("p0", "k", b"payload")
        holders = store.placements["k"]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        result = store.get(reader_for(ring, holders), "k")
        assert result.degraded
        assert result.payload == b"payload"
        assert result.verified == 1 and result.repaired == 0
        assert fabric.metrics.get_counter_value(
            "storage.degraded_reads") == 1

    def test_full_quorum_reads_stay_unflagged(self):
        fabric, _, store = make_store(config=self.CONFIG)
        store.put("p0", "k", b"payload")
        result = store.get("p9", "k")
        assert not result.degraded
        assert fabric.metrics.get_counter_value(
            "storage.degraded_reads") == 0

    def test_degraded_never_returns_unverified_bytes(self):
        """The one reachable holder is a corrupter: raise, don't serve."""
        holders = make_store()[1].replica_set("k")[:3]
        plan = FaultPlan(seed=7).add(CorruptBlob(holders={holders[0]}))
        _, ring, store = make_store(plan=plan, config=self.CONFIG)
        store.put("p0", "k", b"payload")
        for holder in store.placements["k"]:
            if holder != holders[0]:
                ring.nodes[holder].go_offline()
        with pytest.raises(ReplicaIntegrityError):
            store.get(reader_for(ring, store.placements["k"]), "k")

    def test_newest_verified_copy_wins_the_degraded_read(self):
        fabric, ring, store = make_store(config=self.CONFIG)
        store.put("p0", "k", b"v1")
        holders = store.placements["k"]
        laggard = holders[-1]
        ring.nodes[laggard].go_offline()
        store.put("p0", "k", b"v2")
        # only holders that saw v2 go away; the laggard returns with v1
        for holder in holders[:-1]:
            ring.nodes[holder].go_offline()
        ring.nodes[laggard].go_online()
        result = store.get(reader_for(ring, holders), "k")
        assert result.degraded
        assert result.version == 1  # stale is possible — and flagged
        assert result.payload == b"v1"

    def test_flag_off_keeps_the_legacy_failure(self):
        _, ring, store = make_store()
        store.put("p0", "k", b"payload")
        holders = store.placements["k"]
        for holder in holders[1:]:
            ring.nodes[holder].go_offline()
        with pytest.raises(StorageError, match="quorum"):
            store.get(reader_for(ring, holders), "k")
