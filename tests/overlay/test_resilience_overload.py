"""Overload protection units: service queues, deadlines, budgets, breaker.

Covers the PR-9 mechanisms at the network/channel layer — the service
queue's pricing and shed policies, deadline fast-failure, the retry
budget, adaptive timeouts, the ``max_delay`` backoff cap, and the
circuit breaker's single half-open probe (the anti-stampede claim).
"""

import pytest

from repro.exceptions import SimulationError
from repro.fabric import Fabric
from repro.faults import (AdaptiveTimeout, AdaptiveTimeoutConfig,
                          CircuitBreaker, Deadline, OverloadConfig,
                          RetryBudget, RetryBudgetConfig, RetryPolicy,
                          ServiceConfig)
from repro.overlay.simulator import FixedLatency


def _fab(service=None, retry=None, breaker=None, **overload_kw):
    overload = None
    if service is not None or overload_kw:
        # protections are opt-in per test: only what a test names is on
        overload_kw.setdefault("op_budget", None)
        overload_kw.setdefault("retry_budget", None)
        overload_kw.setdefault("adaptive_timeout", None)
        overload = OverloadConfig(service=service, **overload_kw)
    fab = Fabric.create(seed=1, latency=FixedLatency(0.05), retry=retry,
                        breaker=breaker,
                        resilient=retry is not None or breaker is not None,
                        overload=overload)
    from repro.overlay.network import SimNode
    for name in ("a", "b", "c"):
        fab.network.register(SimNode(name))
    return fab


class TestConfigValidation:
    def test_service_config_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            ServiceConfig(service_time=0.0)
        with pytest.raises(SimulationError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(SimulationError):
            ServiceConfig(shed_policy="explode")
        with pytest.raises(SimulationError):
            ServiceConfig(timeout=-1.0)

    def test_overload_config_rejects_bad_budget(self):
        with pytest.raises(SimulationError):
            OverloadConfig(op_budget=0.0)

    def test_mint_deadline_honours_disabled_budget(self):
        assert OverloadConfig(op_budget=None).mint_deadline(5.0) is None
        deadline = OverloadConfig(op_budget=2.0).mint_deadline(5.0)
        assert deadline.expires_at == pytest.approx(7.0)

    def test_install_overload_is_once_only(self):
        fab = _fab(service=ServiceConfig())
        with pytest.raises(SimulationError):
            fab.network.install_overload(OverloadConfig())

    def test_max_delay_validation(self):
        with pytest.raises(SimulationError):
            RetryPolicy(max_delay=0.0)
        with pytest.raises(SimulationError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)


class TestRetryPolicyMaxDelay:
    def test_backoff_is_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, jitter=0.0,
                             max_delay=5.0)

        class _Rng:
            def random(self):
                return 0.5  # zero jitter either way

        rng = _Rng()
        assert policy.backoff(0, rng) == pytest.approx(1.0)
        assert policy.backoff(1, rng) == pytest.approx(5.0)  # capped from 10
        assert policy.backoff(5, rng) == pytest.approx(5.0)

    def test_default_cap_leaves_default_policy_unchanged(self):
        # three default attempts reach base * mult**1 = 0.5s << 30s cap
        policy = RetryPolicy(jitter=0.0)

        class _Rng:
            def random(self):
                return 0.5

        assert policy.backoff(1, _Rng()) == pytest.approx(0.5)


class TestDeadline:
    def test_remaining_expired_minus(self):
        deadline = Deadline.after(10.0, 2.0)
        assert deadline.remaining(10.0) == pytest.approx(2.0)
        assert not deadline.expired(10.0)
        assert deadline.expired(10.0, spent=2.0)
        assert deadline.expired(12.0)
        child = deadline.minus(1.5)
        assert child.remaining(10.0) == pytest.approx(0.5)


class TestRetryBudget:
    def test_spend_exhaust_and_refill(self):
        budget = RetryBudget(RetryBudgetConfig(capacity=2.0,
                                               refill_per_success=0.5))
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        budget.on_success()
        assert budget.tokens == pytest.approx(0.5)
        assert not budget.try_spend()  # 0.5 < the 1-token cost
        budget.on_success()
        assert budget.try_spend()

    def test_refill_never_exceeds_capacity(self):
        budget = RetryBudget(RetryBudgetConfig(capacity=1.0,
                                               refill_per_success=5.0))
        budget.on_success()
        assert budget.tokens == pytest.approx(1.0)


class TestAdaptiveTimeout:
    def test_ewma_and_clamp(self):
        # alpha 0.2, multiplier 3, floor 0.25, ceiling 2.0
        adaptive = AdaptiveTimeout(AdaptiveTimeoutConfig())
        assert adaptive.timeout_for("x") is None  # no sample yet
        adaptive.observe("x", 0.3)
        assert adaptive.timeout_for("x") == pytest.approx(0.9)
        adaptive.observe("x", 0.1)  # ewma -> 0.8 * 0.3 + 0.2 * 0.1 = 0.26
        assert adaptive.timeout_for("x") == pytest.approx(0.78)
        for _ in range(20):
            adaptive.observe("x", 0.01)
        assert adaptive.timeout_for("x") == pytest.approx(0.25)  # floor
        for _ in range(10):
            adaptive.observe("x", 50.0)
        assert adaptive.timeout_for("x") == pytest.approx(2.0)  # ceiling


class TestServiceQueue:
    def test_queue_charges_service_and_wait_time(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=4,
                                         timeout=10.0))
        ok1, rtt1 = fab.network.rpc("a", "b")
        ok2, rtt2 = fab.network.rpc("a", "b")
        assert ok1 and ok2
        assert rtt1 == pytest.approx(0.05 + 1.0 + 0.05)
        # issued at the same frozen instant: waits behind the first job
        assert rtt2 == pytest.approx(0.05 + 2.0 + 0.05)
        assert fab.network.queue_depth("b") >= 1
        assert fab.network.queue_depth("c") == 0

    def test_full_queue_sheds_reject_cheaply(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=2,
                                         shed_policy="reject", timeout=10.0))
        net = fab.network
        assert net.rpc("a", "b")[0] and net.rpc("a", "b")[0]
        before = net.stats.messages
        ok, rtt = net.rpc("a", "b")
        assert not ok
        assert net.stats.shed == 1
        # a rejection rides back: two messages, one wire round trip, no
        # service time billed and no timeout counted
        assert net.stats.messages == before + 2
        assert rtt == pytest.approx(0.10)
        assert net.stats.timeouts == 0

    def test_full_queue_drop_costs_the_timeout(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=2,
                                         shed_policy="drop", timeout=10.0))
        net = fab.network
        assert net.rpc("a", "b")[0] and net.rpc("a", "b")[0]
        before = net.stats.messages
        ok, rtt = net.rpc("a", "b")
        assert not ok
        assert net.stats.shed == 1
        assert net.stats.messages == before + 1  # the request only
        assert rtt == pytest.approx(10.0)  # waited out the attempt timeout
        assert net.stats.timeouts == 1

    def test_backlog_drains_with_virtual_time(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=2,
                                         timeout=10.0))
        net = fab.network
        assert net.rpc("a", "b")[0] and net.rpc("a", "b")[0]
        assert not net.rpc("a", "b")[0]  # full at the frozen instant
        fab.sim.run(until=10.0)
        ok, rtt = net.rpc("a", "b")
        assert ok and rtt == pytest.approx(0.05 + 1.0 + 0.05)

    def test_slow_response_reads_as_timeout(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=8,
                                         timeout=0.5))
        ok, rtt = fab.network.rpc("a", "b")
        assert not ok
        assert rtt == pytest.approx(0.5)  # the client stopped waiting
        assert fab.network.stats.timeouts == 1
        assert fab.network.stats.shed == 0

    def test_shed_decision_draws_no_rng(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0))
        net = fab.network
        assert net.rpc("a", "b")[0]
        state = net._rng.getstate()
        # both wire latencies are drawn, then the deterministic rejection
        assert not net.rpc("a", "b")[0]
        net._rng.setstate(state)
        assert not net.rpc("a", "b")[0]
        assert net.stats.shed == 2

    def test_summary_reports_overload_counters(self):
        fab = _fab(service=ServiceConfig())
        summary = fab.network.stats.summary()
        assert summary["shed"] == 0
        assert summary["deadline_expired"] == 0
        assert summary["budget_exhausted"] == 0
        fab.network.metrics.inc("overload.sheds", 3, kind="rpc", dst="b",
                                policy="reject")
        assert fab.network.stats.shed == 3
        fab.network.stats.reset()
        assert fab.network.stats.shed == 0


class TestChannelOverload:
    def test_expired_deadline_fails_before_any_attempt(self):
        fab = _fab(service=ServiceConfig(), retry=RetryPolicy(jitter=0.0))
        before = fab.network.stats.messages
        ok, elapsed = fab.channel.call(
            "a", "b", deadline=Deadline(fab.sim.now))
        assert not ok and elapsed == 0.0
        assert fab.network.stats.messages == before  # no RPC was issued
        assert fab.network.stats.deadline_expired == 1

    def test_deadline_stops_mid_retry_loop(self):
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0),
                   retry=RetryPolicy(max_attempts=5, base_delay=2.0,
                                     jitter=0.0))
        net = fab.network
        assert net.rpc("a", "b")[0]  # saturate b's one-slot queue
        # every attempt sheds (the clock is frozen, the queue cannot
        # drain) and each backoff burns budget until the deadline trips
        ok, _ = fab.channel.call("a", "b",
                                 deadline=Deadline.after(fab.sim.now, 3.0))
        assert not ok
        assert net.stats.deadline_expired == 1
        assert 0 < net.stats.shed < 5

    def test_retry_budget_caps_attempts(self):
        fab = _fab(service=ServiceConfig(),
                   retry=RetryPolicy(max_attempts=4, jitter=0.0),
                   retry_budget=RetryBudgetConfig(capacity=1.0,
                                                  refill_per_success=1.0))
        fab.network.nodes["b"].go_offline()
        ok, _ = fab.channel.call("a", "b")
        assert not ok
        assert fab.network.stats.retries == 1  # one token, one retry
        assert fab.network.stats.budget_exhausted == 1
        assert fab.channel.retry_budget.tokens == pytest.approx(0.0)
        # successes refill the bucket
        ok, _ = fab.channel.call("a", "c")
        assert ok
        assert fab.channel.retry_budget.tokens == pytest.approx(1.0)

    def test_shed_does_not_feed_the_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=30.0)
        fab = _fab(service=ServiceConfig(service_time=1.0, queue_limit=1,
                                         timeout=10.0),
                   retry=RetryPolicy(max_attempts=2, jitter=0.0),
                   breaker=breaker)
        net = fab.network
        assert net.rpc("a", "b")[0]  # saturate
        ok, _ = fab.channel.call("a", "b")
        assert not ok and net.stats.shed == 2
        # two overloaded failures against a 1-failure threshold: still
        # closed — the peer is alive and honestly rejecting
        assert breaker.state("b", fab.sim.now) == "closed"
        # a genuine failure still trips it
        net.nodes["c"].go_offline()
        fab.channel.call("a", "c")
        assert breaker.state("c", fab.sim.now) == "open"

    def test_fabric_wires_budget_and_service(self):
        fab = _fab(service=ServiceConfig(), retry=RetryPolicy(),
                   retry_budget=RetryBudgetConfig(capacity=7.0))
        assert fab.network.service is not None
        assert fab.channel.retry_budget.capacity == pytest.approx(7.0)
        assert fab.overload is not None

    def test_no_overload_means_no_service_state(self):
        fab = Fabric.create(seed=1, resilient=True)
        assert fab.overload is None
        assert fab.network.service is None
        assert fab.channel.retry_budget is None


class TestBreakerSingleProbe:
    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        assert breaker.record_failure("d", now=0.0)  # trips open
        assert not breaker.allow("d", now=5.0)  # still cooling down
        # cooled down: the first caller claims the single probe slot...
        assert breaker.allow("d", now=20.0)
        # ...and the stampede behind it keeps failing fast
        assert not breaker.allow("d", now=20.0)
        assert not breaker.allow("d", now=25.0)

    def test_is_open_inspects_without_claiming(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure("d", now=0.0)
        assert not breaker.is_open("d", now=20.0)
        assert not breaker.is_open("d", now=20.0)  # still unclaimed
        assert breaker.allow("d", now=20.0)  # the probe slot was free
        assert breaker.is_open("d", now=20.0)  # now it is not

    def test_successful_probe_closes_and_releases(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure("d", now=0.0)
        assert breaker.allow("d", now=20.0)
        breaker.record_success("d")
        assert breaker.state("d", now=20.0) == "closed"
        assert breaker.allow("d", now=20.0)
        assert breaker.allow("d", now=20.0)  # closed: no probe gate

    def test_failed_probe_reopens_and_releases(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        breaker.record_failure("d", now=0.0)
        assert breaker.allow("d", now=20.0)
        breaker.record_failure("d", now=20.0)  # the probe failed
        assert breaker.state("d", now=20.0) == "open"
        assert not breaker.allow("d", now=25.0)
        # the next cooldown admits exactly one probe again
        assert breaker.allow("d", now=31.0)
        assert not breaker.allow("d", now=31.0)

    def test_stampede_through_the_channel(self):
        """End to end: concurrent callers after cooldown -> one real probe."""
        breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0)
        fab = _fab(retry=RetryPolicy(max_attempts=1), breaker=breaker)
        net = fab.network
        net.nodes["b"].go_offline()
        fab.channel.call("a", "b")  # trips the breaker
        net.nodes["b"].go_online()
        fab.sim.run(until=20.0)
        before = net.stats.messages
        # simulate a stampede: claim the probe, then race a second caller
        # in before its outcome lands
        assert breaker.allow("b", fab.sim.now)
        ok, _ = fab.channel.call("a", "b")  # the racing caller
        assert not ok
        assert net.stats.messages == before  # fast-failed, no RPC sent
        assert net.stats.breaker_fastfails >= 1
