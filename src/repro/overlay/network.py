"""Simulated message-passing network and peer base class.

Two communication styles, matching how the overlay protocols are written:

* **asynchronous messages** — :meth:`SimNetwork.send` schedules delivery of
  a :class:`Message` to the destination's ``on_<kind>`` handler after a
  latency sample (gossip and churn-driven protocols use this);
* **accounted RPC** — :meth:`SimNetwork.rpc` models a synchronous
  request/response against an online peer: it charges two messages and one
  round trip to the statistics and returns immediately (the iterative DHT
  lookups use this — the classic simulation shortcut that preserves hop and
  message counts without continuation-passing every protocol step).

Every count is written once, into the attached
:class:`repro.obs.MetricsRegistry` (failures dimensionally: kind × cause ×
direction); :class:`NetworkStats` is the flat read view over it that
experiments E5-E7 read for their message-cost series.  Every send/RPC also
opens a span on the attached tracer (a no-op by default) — see
:mod:`repro.obs` and :class:`repro.fabric.Fabric`.

Beyond the benign i.i.d. loss process, the fabric can carry an installed
:class:`repro.faults.FaultPlan` (see :meth:`SimNetwork.install_faults`):
partitions, correlated loss bursts, slow links, crash/restart, and message
corruption, all deterministic from the simulator seed.  Experiment E12
stresses the overlay protocols through this hook.
"""

from __future__ import annotations

import random as _random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import OverlayError, SimulationError
from repro.obs.metrics import Counter as MetricCounter, MetricsRegistry
from repro.obs.trace import NOOP_TRACER
from repro.overlay.simulator import SimFuture, Simulator, UniformLatency


@dataclass
class Message:
    """An overlay message: a kind tag plus an arbitrary payload dict.

    ``corrupted`` is set by the fault layer when the message was delivered
    but garbled in flight — integrity mechanisms are expected to detect it.
    """

    kind: str
    src: str
    dst: str
    payload: Dict[str, Any] = field(default_factory=dict)
    corrupted: bool = False

    def size_estimate(self) -> int:
        """Crude byte-size estimate for bandwidth accounting."""
        return 64 + sum(len(str(k)) + len(str(v))
                        for k, v in self.payload.items())


#: flat :class:`NetworkStats` field -> the one registry counter it reads,
#: summed over that counter's labels
LEDGER: Dict[str, str] = {
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


class NetworkStats:
    """Flat read view over the network's :class:`MetricsRegistry`.

    Every count is written once, into the registry; each attribute here
    (see :data:`LEDGER`) is the label-sum of one registry counter, so no
    export path can miss a field.  The base counters feed E5-E7; the
    resilience counters (``retries``, ``breaker_trips``,
    ``breaker_fastfails``, ``hedges``) come from
    :class:`repro.faults.ReliableChannel` and the fan-out readers, and
    ``fault_drops`` / ``corrupted`` attribute losses to an installed fault
    plan — E12 reads all of them.  ``failures`` counts every failed RPC
    attempt, whatever its cause.  The overload counters (``shed``:
    requests rejected or dropped by a full service queue,
    ``deadline_expired``: operations abandoned because their propagated
    deadline ran out, ``budget_exhausted``: retries denied by the
    channel's token bucket) stay zero unless an
    :class:`repro.faults.OverloadConfig` is installed — E18 reads them.
    The adversary counters (``misrouted``: lookups handed to an
    accomplice next hop, ``forged_routes``: forged owner claims /
    closest-node sets) stay zero unless an
    :class:`repro.adversary.AdversaryConfig` is installed — E19 reads
    them, and E12b's table proves they stay zero on the legacy path.

    ``by_kind`` counts send and RPC *calls* per kind (``net.calls``), not
    wire messages: one :meth:`SimNetwork.rpc_issue` bumps it once while
    charging two messages.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics

    def __getattr__(self, name: str) -> int:
        try:
            counter = LEDGER[name]
        except KeyError:
            raise AttributeError(name) from None
        return self._metrics.total(counter)

    @property
    def by_kind(self) -> Counter:
        """Send and RPC calls per message kind."""
        return Counter({dict(c.labels)["kind"]: c.value
                        for c in self._metrics.counters("net.calls")
                        if c.value})

    def reset(self) -> None:
        """Zero every counter this view reads (benchmarks call between
        phases); bound counters stay bound, so the next call counts
        from 0."""
        for name in (*LEDGER.values(), "net.calls"):
            for counter in self._metrics.counters(name):
                counter.value = 0

    def summary(self) -> Dict[str, int]:
        """Every field, flat, in :data:`LEDGER` order."""
        return {field: self._metrics.total(counter)
                for field, counter in LEDGER.items()}


class SimNode:
    """Base class for simulated peers.

    Subclasses implement ``on_<kind>(message)`` handlers for async traffic.
    ``online`` gates both delivery and RPC reachability — churn models flip
    it via :meth:`go_online` / :meth:`go_offline`.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.online = True
        self.network: Optional["SimNetwork"] = None

    def attach(self, network: "SimNetwork") -> None:
        """Called by the network on registration."""
        self.network = network

    def go_online(self) -> None:
        """Bring the peer up (hook for subclasses to re-sync state)."""
        self.online = True

    def go_offline(self) -> None:
        """Take the peer down; in-flight messages to it will be dropped."""
        self.online = False

    def crash(self, lose_state: bool = True) -> None:
        """Fail the peer; with ``lose_state`` its volatile state is wiped.

        Used by :class:`repro.faults.Crash`.  Unlike a churn departure,
        a crashed-and-restarted peer comes back *empty* — recovering its
        data is the replication layer's job.
        """
        if lose_state:
            self.wipe_state()
        self.go_offline()

    def wipe_state(self) -> None:
        """Drop volatile state on crash.

        The default clears the conventional ``store`` dict the DHT nodes
        keep; subclasses with more state should extend this.
        """
        store = getattr(self, "store", None)
        if isinstance(store, dict):
            store.clear()

    def handle_message(self, message: Message) -> None:
        """Dispatch to ``on_<kind>``; unknown kinds raise."""
        handler = getattr(self, f"on_{message.kind}", None)
        if handler is None:
            raise OverlayError(
                f"{type(self).__name__} has no handler for "
                f"{message.kind!r}")
        handler(message)


class SimNetwork:
    """The message fabric connecting :class:`SimNode` peers."""

    def __init__(self, sim: Simulator, latency: Optional[Any] = None,
                 loss_rate: float = 0.0, faults: Optional[Any] = None,
                 tracer: Optional[Any] = None) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.latency = latency or UniformLatency()
        self.loss_rate = loss_rate
        self.nodes: Dict[str, SimNode] = {}
        #: observability: a no-op tracer by default, and the network's own
        #: registry — the one counter ledger, which
        #: :class:`repro.fabric.Fabric` shares with every layer
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = MetricsRegistry()
        self.stats = NetworkStats(self.metrics)
        # bumped on every send or RPC: bound once, never looked up per call
        self._messages = self.metrics.counter("net.messages")
        self._bytes = self.metrics.counter("net.bytes")
        self._timeouts = self.metrics.counter("net.timeouts")
        self._calls: Dict[str, MetricCounter] = {}
        self._rng = sim.split_rng("network")
        self.faults = None
        #: per-peer service model (None = fair-weather: RPCs are free for
        #: the server) — see :meth:`install_overload`
        self.service = None
        self._adaptive = None
        #: absolute virtual time until which each peer's queue is busy
        self._busy_until: Dict[str, float] = {}
        #: deepest backlog ever observed per destination (jobs waiting)
        self.queue_peak: Dict[str, int] = {}
        if faults is not None:
            self.install_faults(faults)

    def install_faults(self, plan: Any) -> None:
        """Attach a :class:`repro.faults.FaultPlan` to the fabric.

        Binding materializes the plan's burst schedules from its seed and
        registers crash/restart events on the simulator.
        """
        if self.faults is not None:
            raise SimulationError("a fault plan is already installed")
        plan.bind(self)
        self.faults = plan

    def install_overload(self, config: Optional[Any]) -> None:
        """Attach an :class:`repro.faults.OverloadConfig` service model.

        With a :class:`~repro.faults.ServiceConfig` installed every RPC
        destination processes one request per ``service_time`` and keeps
        a bounded FIFO backlog; :meth:`rpc_issue` charges the queueing
        delay on top of wire latency, and a full queue sheds.  With an
        adaptive-timeout config, successful RTTs per destination feed an
        EWMA that replaces the fixed attempt timeout.  ``None`` is a
        no-op: no service state exists and every draw, span, and counter
        stays byte-identical to the fair-weather fabric.
        """
        if config is None:
            return
        if self.service is not None:
            raise SimulationError("an overload config is already installed")
        self.service = config.service
        if config.adaptive_timeout is not None:
            from repro.faults.overload import AdaptiveTimeout
            self._adaptive = AdaptiveTimeout(config.adaptive_timeout)

    def queue_depth(self, dst: str, now: Optional[float] = None) -> int:
        """Jobs currently queued or in service at ``dst`` (0 when idle)."""
        if self.service is None:
            return 0
        backlog = self._busy_until.get(dst, 0.0) - \
            (self.sim.now if now is None else now)
        if backlog <= 0:
            return 0
        return max(1, round(backlog / self.service.service_time))

    def register(self, node: SimNode) -> None:
        """Add a peer to the fabric."""
        if node.node_id in self.nodes:
            raise OverlayError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        node.attach(self)

    def node(self, node_id: str) -> SimNode:
        """Look up a registered peer."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise OverlayError(f"unknown node {node_id!r}")

    def is_online(self, node_id: str) -> bool:
        """Whether the peer exists and is currently up."""
        node = self.nodes.get(node_id)
        return node is not None and node.online

    # -- fault-aware draws ------------------------------------------------------

    def _loss_cause(self, a: str, b: str, t: float) -> Optional[str]:
        """One direction's loss draw: None, 'loss' (base), or 'fault'."""
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            return "loss"
        if self.faults is not None:
            rate = self.faults.loss_rate(a, b, t)
            if rate > 0 and self._rng.random() < rate:
                return "fault"
        return None

    def _latency_factor(self, a: str, b: str, t: float) -> float:
        if self.faults is None:
            return 1.0
        return self.faults.latency_factor(a, b, t)

    def _corrupts(self, a: str, b: str, t: float) -> bool:
        if self.faults is None:
            return False
        rate = self.faults.corruption_rate(a, b, t)
        return rate > 0 and self._rng.random() < rate

    def _count_call(self, kind: str) -> None:
        """One send or RPC call of ``kind``: ``net.calls{kind}``."""
        counter = self._calls.get(kind)
        if counter is None:
            counter = self._calls[kind] = self.metrics.counter(
                "net.calls", kind=kind)
        counter.value += 1

    # -- asynchronous messaging ------------------------------------------------

    def send(self, message: Message) -> None:
        """Queue delivery of ``message`` after a latency sample.

        Messages to offline/unknown peers or lost to the loss process are
        counted as drops, ``net.send_drops{kind=..., cause=...}``; the
        sender is not notified (UDP semantics — the protocols on top
        implement their own retries where they need them).
        Partition-blocked and burst-lost messages additionally count as
        ``fault_drops``; corrupted ones are delivered flagged.
        """
        self._count_call(message.kind)
        self._messages.value += 1
        self._bytes.value += message.size_estimate()
        now = self.sim.now
        with self.tracer.span("net.send", kind=message.kind,
                              src=message.src, dst=message.dst) as span:
            if self.faults is not None \
                    and self.faults.blocks(message.src, message.dst, now):
                self.metrics.inc("net.fault_drops")
                self.metrics.inc("net.send_drops", kind=message.kind,
                                 cause="partition")
                span.set_attr("dropped", "partition")
                return
            cause = self._loss_cause(message.src, message.dst, now)
            if cause is not None:
                if cause == "fault":
                    self.metrics.inc("net.fault_drops")
                self.metrics.inc("net.send_drops", kind=message.kind,
                                 cause=cause)
                span.set_attr("dropped", cause)
                return
            if self._corrupts(message.src, message.dst, now):
                message.corrupted = True
                self.metrics.inc("net.corrupted", kind=message.kind)
            delay = self.latency.sample(self._rng, message.src, message.dst) \
                * self._latency_factor(message.src, message.dst, now)
            span.add_cost(delay)
            parent_id = self.tracer.current_id

            def deliver() -> None:
                with self.tracer.span("net.deliver", parent=parent_id,
                                      kind=message.kind,
                                      dst=message.dst) as dspan:
                    node = self.nodes.get(message.dst)
                    if node is None or not node.online:
                        self.metrics.inc("net.send_drops", kind=message.kind,
                                         cause="offline")
                        dspan.set_attr("dropped", "offline")
                        return
                    node.handle_message(message)

            self.sim.schedule(delay, deliver)

    # -- accounted synchronous RPC ------------------------------------------------

    def rpc_issue(self, src: str, dst: str, kind: str = "rpc",
                  payload_size: int = 64) -> SimFuture:
        """Issue one RPC and return its completion token.

        Every RNG draw (latency samples, loss causes, corruption) happens
        *now*, in issue order — exactly the draws the blocking
        :meth:`rpc` made, in the same order — so issuing a batch of RPCs
        and combining their futures consumes the identical random stream
        a sequential loop would.  The returned :class:`SimFuture` carries
        ``value=(ok, rtt)``, ``ok``, and ``latency=rtt``; feed batches of
        them to :func:`repro.overlay.simulator.quorum_of` /
        :func:`~repro.overlay.simulator.gather` to account the fan-out's
        critical path instead of the sum.

        Span and statistics behaviour is unchanged from :meth:`rpc`: the
        ``net.rpc`` span closes immediately carrying the RTT as cost (a
        parallel parent span turns the sum into a max — see
        :class:`repro.obs.trace.Span`).
        """
        self._count_call(kind)
        with self.tracer.span("net.rpc", kind=kind, src=src,
                              dst=dst) as span:
            ok, rtt, cause = self._rpc_inner(src, dst, kind, payload_size,
                                             span)
            span.set_attr("ok", ok)
            span.add_cost(rtt)
        return self.sim.future(rtt, value=(ok, rtt), ok=ok, cause=cause)

    def rpc(self, src: str, dst: str, kind: str = "rpc",
            payload_size: int = 64) -> Tuple[bool, float]:
        """Model one request/response round trip.

        A blocking wrapper over :meth:`rpc_issue` — the draws, spans and
        statistics are byte-identical to the pre-split implementation.

        Returns ``(reachable, rtt)``.  The two directions draw loss
        independently so the accounting matches the fault model: a lost
        *request* (or an offline/partitioned destination) costs one message
        plus a timeout — failed probes are not free, matching how real
        iterative lookups pay for dead fingers — while a lost *response*
        costs both messages (the request was delivered) plus the timeout.
        A corrupted response is delivered but useless, so it also reads as
        a failure, as does a request shed by a full service queue.

        Every failure is recorded once, dimensionally, in :attr:`metrics`
        as ``net.rpc_failures{kind=..., cause=..., direction=...}`` —
        :attr:`NetworkStats.failures` is its label-sum — so a lost request
        and a lost response stay distinguishable.
        """
        return self.rpc_issue(src, dst, kind, payload_size).value

    def _timeout_cost(self, dst: str, out: float) -> float:
        """What one abandoned attempt against ``dst`` costs the caller.

        Cascade: the adaptive per-destination EWMA estimate when one
        exists, else the fixed :attr:`ServiceConfig.timeout` when a
        service model is installed, else the legacy ``4 * out``
        heuristic — so with ``overload=None`` every timeout is priced
        exactly as before.
        """
        if self._adaptive is not None:
            adaptive = self._adaptive.timeout_for(dst)
            if adaptive is not None:
                return adaptive
        if self.service is not None:
            return self.service.timeout
        return 4 * out  # timeout ~ a few RTTs

    def _enqueue(self, dst: str, arrival: float) -> Tuple[bool, float]:
        """Admit one request to ``dst``'s service queue at ``arrival``.

        Returns ``(accepted, queue_wait)`` where ``queue_wait`` includes
        the request's own service time.  The queue is a per-destination
        ``busy_until`` horizon on the virtual clock: backlog drains by
        the mere passage of virtual time, and depth is the backlog
        divided by the service time.  Rejection is deterministic — no
        RNG draw — so installing a service model never perturbs the
        fault layer's random streams.
        """
        service = self.service
        busy = max(self._busy_until.get(dst, arrival), arrival)
        depth = round((busy - arrival) / service.service_time)
        if depth > self.queue_peak.get(dst, -1):
            self.queue_peak[dst] = depth
            self.metrics.gauge("overload.queue_depth", dst=dst).set(depth)
        if service.queue_limit is not None and depth >= service.queue_limit:
            return (False, 0.0)
        self._busy_until[dst] = busy + service.service_time
        return (True, (busy - arrival) + service.service_time)

    def _rpc_inner(self, src: str, dst: str, kind: str, payload_size: int,
                   span: Any) -> Tuple[bool, float, Optional[str]]:
        now = self.sim.now
        factor = self._latency_factor(src, dst, now)
        out = self.latency.sample(self._rng, src, dst) * factor
        blocked = self.faults is not None \
            and self.faults.blocks(src, dst, now)
        reachable = not blocked and self.is_online(dst)
        request_lost = self._loss_cause(src, dst, now) if reachable else None
        if not reachable or request_lost is not None:
            self._messages.value += 1
            self._bytes.value += payload_size
            self._timeouts.value += 1
            if blocked or request_lost == "fault":
                self.metrics.inc("net.fault_drops")
            cause = "partition" if blocked else (
                "offline" if not reachable else request_lost)
            self.metrics.inc("net.rpc_failures", kind=kind, cause=cause,
                             direction="request")
            span.set_attr("failed", f"request/{cause}")
            return (False, self._timeout_cost(dst, out), cause)
        back = self.latency.sample(self._rng, dst, src) * factor
        queue_wait = 0.0
        if self.service is not None:
            # the request reached dst: admission to its service queue
            accepted, queue_wait = self._enqueue(dst, now + out)
            if not accepted:
                self.metrics.inc("overload.sheds", kind=kind, dst=dst,
                                 policy=self.service.shed_policy)
                self.metrics.inc("net.rpc_failures", kind=kind,
                                 cause="overloaded", direction="request")
                span.set_attr("failed", "overloaded")
                if self.service.shed_policy == "reject":
                    # a typed rejection rides back: two messages, one
                    # round trip — the cheap failure shedding buys
                    self._messages.value += 2
                    self._bytes.value += payload_size + 64
                    return (False, out + back, "overloaded")
                # "drop": silently discarded; the caller waits out the
                # attempt timeout, exactly like an unprotected peer
                self._messages.value += 1
                self._bytes.value += payload_size
                self._timeouts.value += 1
                return (False, self._timeout_cost(dst, out), "overloaded")
        self._messages.value += 2
        self._bytes.value += 2 * payload_size
        response_lost = self._loss_cause(dst, src, now)
        if response_lost is not None:
            self._timeouts.value += 1
            if response_lost == "fault":
                self.metrics.inc("net.fault_drops")
            self.metrics.inc("net.rpc_failures", kind=kind,
                             cause=response_lost, direction="response")
            span.set_attr("failed", f"response/{response_lost}")
            return (False, self._timeout_cost(dst, out), response_lost)
        if self._corrupts(dst, src, now):
            self.metrics.inc("net.corrupted", kind=kind)
            self.metrics.inc("net.rpc_failures", kind=kind,
                             cause="corruption", direction="response")
            span.set_attr("failed", "response/corruption")
            return (False, out + back + queue_wait, "corruption")
        rtt = out + queue_wait + back
        if self.service is not None:
            timeout = self._timeout_cost(dst, out)
            if rtt > timeout:
                # the answer is coming, but later than the client waits:
                # it reads as a timeout while dst's service time is
                # already spent — the wasted work that feeds metastable
                # collapse.
                self._timeouts.value += 1
                self.metrics.inc("net.rpc_failures", kind=kind,
                                 cause="slow", direction="response")
                span.set_attr("failed", "response/slow")
                return (False, timeout, "slow")
            if self._adaptive is not None:
                self._adaptive.observe(dst, rtt)
        return (True, rtt, None)
