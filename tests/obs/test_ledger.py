"""One counter ledger: every ``NetworkStats`` field reads the registry.

``SimNetwork.metrics`` is the only place a count is written; the flat
``NetworkStats`` fields are label-sums of registry counters.  These tests
pin the field -> counter mapping on a run that drives every field, the
``reset()`` contract, and what ``summary()["failures"]`` counts.
"""

from collections import defaultdict

import pytest

from repro.adversary import AdversaryConfig
from repro.fabric import Fabric
from repro.faults import (CircuitBreaker, Corruption, FaultPlan, LossBurst,
                          OverloadConfig, RetryBudgetConfig, RetryPolicy,
                          ServiceConfig)
from repro.obs import metrics_rows
from repro.overlay.chord import ChordRing
from repro.overlay.network import Message, SimNode
from repro.storage2 import ReplicatedStore, ReplicationConfig

#: flat field -> the registry counter it must equal, summed over labels
EXPECTED = {
    "messages": "net.messages",
    "bytes": "net.bytes",
    "drops": "net.send_drops",
    "timeouts": "net.timeouts",
    "corrupted": "net.corrupted",
    "failures": "net.rpc_failures",
    "retries": "net.retries",
    "breaker_trips": "net.breaker_trips",
    "breaker_fastfails": "net.breaker_fastfails",
    "hedges": "net.hedges",
    "fault_drops": "net.fault_drops",
    "shed": "overload.sheds",
    "deadline_expired": "overload.deadline_expired",
    "budget_exhausted": "overload.budget_exhausted",
    "misrouted": "adversary.misroutes",
    "forged_routes": "adversary.forged_routes",
}


class _Sink(SimNode):
    def on_ping(self, message):
        pass


def _counter_sums(fab):
    """Label-sums of every counter, read from the exported rows."""
    sums = defaultdict(int)
    by_kind = {}
    for name, labels, kind, value, _p50, _p99 in metrics_rows(fab.metrics)[1]:
        if kind == "counter":
            sums[name] += value
            if name == "net.calls" and value:
                by_kind[labels.split("=", 1)[1]] = value
    return sums, by_kind


@pytest.fixture
def stressed():
    """Burst loss, corruption, reject shedding, a retrying channel with a
    hair-trigger breaker, a retry budget, deadlines and an adversary."""
    plan = FaultPlan(seed=9).add(
        LossBurst(rate=0.3, mean_burst=5.0, mean_gap=10.0)).add(
        Corruption(rate=0.05))
    fab = Fabric.create(
        seed=4, faults=plan, retry=RetryPolicy(max_attempts=3, jitter=0.0),
        breaker=CircuitBreaker(failure_threshold=1),
        overload=OverloadConfig(
            service=ServiceConfig(service_time=0.3, queue_limit=2,
                                  shed_policy="reject", timeout=1.0),
            op_budget=1.5,
            retry_budget=RetryBudgetConfig(capacity=4.0,
                                           refill_per_success=0.5)),
        adversary=AdversaryConfig(fraction=0.25))
    ring = ChordRing(fab, successor_list_size=4, replication=3)
    for i in range(12):
        ring.add_node(f"p{i}")
    ring.build()
    store = ReplicatedStore(ring, ReplicationConfig(n=3, r=2, w=2))
    for name in ("s0", "s1"):
        fab.network.register(_Sink(name))
    store.put("p0", "hot", b"payload")
    for j in range(30):
        fab.sim.run(until=5.0 + j * 0.2)
        for op in (lambda: store.get(f"p{(j % 11) + 1}", "hot"),
                   lambda: ring.lookup(f"p{j % 12}", f"k{j}")):
            try:
                op()
            except Exception:
                pass  # the failure is what is being counted
        fab.network.send(Message("ping", "s0", "s1"))
    fab.sim.run(until=20.0)
    return fab


class TestOneLedger:
    def test_every_field_is_the_label_sum_of_one_counter(self, stressed):
        summary = stressed.network.stats.summary()
        assert set(summary) == set(EXPECTED)
        sums, by_kind = _counter_sums(stressed)
        for field, counter in EXPECTED.items():
            assert summary[field] > 0, f"{field} not exercised"
            assert summary[field] == sums[counter], field
            assert getattr(stressed.network.stats, field) == summary[field]
        assert dict(stressed.network.stats.by_kind) == by_kind

    def test_reset_zeroes_every_field_and_counts_from_zero(self, stressed):
        stats = stressed.network.stats
        stats.reset()
        assert all(value == 0 for value in stats.summary().values())
        assert not stats.by_kind
        sums, _ = _counter_sums(stressed)
        assert all(sums[counter] == 0 for counter in EXPECTED.values())
        stressed.network.rpc("s0", "s1", kind="probe")
        assert stats.by_kind == {"probe": 1}
        assert stats.messages in (1, 2)
        sums, _ = _counter_sums(stressed)
        assert stats.summary() == {field: sums[counter]
                                   for field, counter in EXPECTED.items()}

    def test_fields_are_read_only(self, stressed):
        with pytest.raises(AttributeError):
            stressed.network.stats.shed = 3


class TestFailures:
    @pytest.mark.parametrize("policy", ["reject", "drop"])
    def test_every_shed_rpc_counts_as_a_failure(self, policy):
        fab = Fabric.create(seed=0, overload=OverloadConfig(
            service=ServiceConfig(queue_limit=1, shed_policy=policy)))
        for name in ("a", "b"):
            fab.network.register(_Sink(name))
        futures = [fab.network.rpc_issue("a", "b") for _ in range(10)]
        failed = sum(not future.ok for future in futures)
        assert failed >= 8
        assert fab.network.stats.summary()["failures"] == failed
        assert fab.network.stats.shed == failed

    def test_corrupted_one_way_sends_are_not_rpc_failures(self):
        fab = Fabric.create(
            seed=0, faults=FaultPlan(seed=1).add(Corruption(rate=1.0)))
        for name in ("a", "b"):
            fab.network.register(_Sink(name))
        for _ in range(5):
            fab.network.send(Message("ping", "a", "b"))
        fab.sim.run(until=10.0)
        assert fab.network.stats.corrupted == 5
        assert fab.network.stats.summary()["failures"] == 0
