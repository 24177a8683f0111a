"""Resilient messaging over the simulated fabric.

:class:`ReliableChannel` wraps :meth:`SimNetwork.rpc` with the machinery
real P2P stacks use to survive the faults :mod:`repro.faults.plan`
injects:

* **bounded retries** with exponential backoff and jitter
  (:class:`RetryPolicy`) — masks transient loss bursts;
* **per-destination circuit breakers** (:class:`CircuitBreaker`) — after
  repeated failures a destination is considered down and further calls
  fail fast without paying message cost, until a cooldown expires and a
  half-open probe is allowed through;
* **hedged calls** against replica sets (:meth:`ReliableChannel.hedged`)
  — the first reachable holder serves the request, so a crashed or
  partitioned owner does not make the content unavailable;
* **overload awareness** (opt-in, see :mod:`repro.faults.overload`) —
  calls accept a propagated :class:`~repro.faults.overload.Deadline`
  and fail fast once it expires, retries draw from a shared
  :class:`~repro.faults.overload.RetryBudget` token bucket, and a shed
  (``overloaded``) response never feeds the circuit breaker.

Every retry, breaker trip, fast-fail, and hedge is counted in the
network's :class:`NetworkStats`, so experiment E12 can price the
resilience (extra messages) against what it buys (success rate).

Backoff delays are virtual-time bookkeeping: they are added to the
reported elapsed time of a call rather than scheduled as events —
consistent with the accounted-RPC shortcut the DHT lookups already use.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.exceptions import SimulationError
from repro.faults.overload import Deadline, RetryBudget
from repro.overlay.simulator import SimFuture


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter."""

    max_attempts: int = 3
    base_delay: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.5
    #: cap on the exponential term — without one, ``base * mult**attempt``
    #: grows unbounded and a long retry loop can sleep for hours of
    #: virtual time (the default cap is far above what the default three
    #: attempts can reach, so existing behaviour is unchanged)
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SimulationError("need at least one attempt")
        if not 0.0 <= self.jitter <= 1.0:
            raise SimulationError("jitter must be in [0, 1]")
        if self.max_delay <= 0:
            raise SimulationError("max_delay must be positive")
        if self.base_delay > self.max_delay:
            raise SimulationError("base_delay cannot exceed max_delay")

    def backoff(self, attempt: int, rng: _random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based), capped."""
        delay = min(self.base_delay * (self.multiplier ** attempt),
                    self.max_delay)
        return delay * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass
class CircuitBreaker:
    """Per-destination breaker: closed -> open -> half-open -> closed.

    ``failure_threshold`` consecutive failures open the breaker for
    ``cooldown`` virtual seconds; while open, calls fail fast.  After the
    cooldown exactly **one** half-open probe is admitted per destination;
    concurrent callers fail fast until that probe's outcome is recorded
    (success closes the breaker, failure re-opens it).  Without the
    single-probe claim, every caller whose cooldown had elapsed would
    stampede the recovering peer at once — the thundering herd the
    breaker exists to prevent.
    """

    failure_threshold: int = 4
    cooldown: float = 30.0
    _failures: Dict[str, int] = field(default_factory=dict, repr=False)
    _opened_at: Dict[str, float] = field(default_factory=dict, repr=False)
    #: destinations with a half-open probe currently in flight
    _probing: Set[str] = field(default_factory=set, repr=False)

    def _may_call(self, dst: str, now: float) -> bool:
        """Pure admission check — no probe slot is claimed."""
        opened = self._opened_at.get(dst)
        if opened is None:
            return True
        return now - opened >= self.cooldown and dst not in self._probing

    def allow(self, dst: str, now: float) -> bool:
        """Whether a call to ``dst`` may proceed at virtual time ``now``.

        An allowed call against an open-but-cooled-down destination
        *claims* the single half-open probe slot; the caller must report
        back via :meth:`record_success` / :meth:`record_failure` to
        release it.  Use :meth:`is_open` to inspect without claiming.
        """
        opened = self._opened_at.get(dst)
        if opened is None:
            return True
        if now - opened >= self.cooldown and dst not in self._probing:
            self._probing.add(dst)  # the one half-open probe
            return True
        return False

    def is_open(self, dst: str, now: float) -> bool:
        """Whether the breaker is holding calls to ``dst`` back."""
        return not self._may_call(dst, now)

    def record_success(self, dst: str) -> None:
        """A call to ``dst`` succeeded: close the breaker."""
        self._failures.pop(dst, None)
        self._opened_at.pop(dst, None)
        self._probing.discard(dst)

    def record_failure(self, dst: str, now: float) -> bool:
        """A call to ``dst`` failed; returns True when this trips it open."""
        if dst in self._opened_at:
            self._opened_at[dst] = now  # failed half-open probe re-opens
            self._probing.discard(dst)
            return False
        count = self._failures.get(dst, 0) + 1
        self._failures[dst] = count
        if count >= self.failure_threshold:
            self._opened_at[dst] = now
            self._failures.pop(dst, None)
            return True
        return False

    def quarantine(self, dst: str, now: float) -> None:
        """Force the breaker open for ``dst`` (adversary quarantine).

        Uses the same machinery as a trip, so the destination stays
        recoverable: after the cooldown a single half-open probe is
        admitted and a success closes the breaker again.
        """
        self._opened_at[dst] = now
        self._failures.pop(dst, None)

    def state(self, dst: str, now: float) -> str:
        """``closed`` / ``open`` / ``half_open`` for ``dst`` at ``now``."""
        opened = self._opened_at.get(dst)
        if opened is None:
            return "closed"
        if now - opened >= self.cooldown:
            return "half_open"
        return "open"


#: Gauge encoding of breaker states (``channel.breaker_state{dst=...}``).
BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 0.5, "open": 1.0}


class ReliableChannel:
    """Timeout/retry/breaker/hedging wrapper over a :class:`SimNetwork`.

    Protocols call :meth:`call` where they would call ``network.rpc``;
    replica reads go through :meth:`hedged`.  The channel's RNG is split
    from the simulator seed, so retry jitter is deterministic.
    """

    def __init__(self, network, policy: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 hedge_delay: float = 0.05) -> None:
        self.network = network
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        #: stagger between hedge launches: candidate ``i`` launches at
        #: virtual offset ``i * hedge_delay``, and launching stops as
        #: soon as an earlier request has already succeeded.
        self.hedge_delay = hedge_delay
        #: the fabric's :class:`repro.membership.SwimMembership`, set by
        #: :meth:`repro.fabric.Fabric.attach_membership`.  When the
        #: *source* of a call has a membership view, that view replaces
        #: the fixed breaker thresholds: confirmed-dead destinations
        #: fail fast, suspicious ones get a single attempt, and the
        #: breaker is neither consulted nor updated for the call.
        self.membership = None
        #: a shared :class:`repro.faults.RetryBudget` capping cluster-wide
        #: retry amplification, set by :class:`repro.fabric.Fabric` when
        #: an overload config asks for one.  ``None`` = unbudgeted
        #: retries (the legacy behaviour).
        self.retry_budget: Optional[RetryBudget] = None
        self._rng = network.sim.split_rng("reliable-channel")

    def _view_of(self, src: str):
        if self.membership is None:
            return None
        return self.membership.view_of(src)

    def _export_breaker_state(self, dst: str) -> None:
        """Publish the breaker's view of ``dst`` as a labelled gauge."""
        state = self.breaker.state(dst, self.network.sim.now)
        self.network.metrics.gauge("channel.breaker_state", dst=dst).set(
            BREAKER_STATE_VALUES[state])

    def call(self, src: str, dst: str, kind: str = "rpc",
             payload_size: int = 64,
             deadline: Optional[Deadline] = None) -> Tuple[bool, float]:
        """One logical request/response with retries and breaker checks.

        Returns ``(ok, elapsed)`` where ``elapsed`` includes every
        attempt's RTT/timeout plus backoff waits.  On a traced fabric the
        logical call is one ``channel.call`` span whose children are the
        per-attempt ``net.rpc`` spans; backoff waits are charged to the
        channel span itself.

        With a membership view for ``src`` the liveness policy is
        adaptive instead of threshold-based: a destination the view has
        confirmed dead fails fast (``membership_fastfail``), one whose
        phi exceeds the suspect level gets a single attempt (retries are
        for peers believed alive), and a successful call feeds back into
        the view as proof of life.

        Overload protection (all opt-in): an expired ``deadline`` fails
        the call before the next attempt is issued; retries beyond the
        first attempt draw from the channel's shared
        :attr:`retry_budget` when one is set (an empty bucket means no
        retry); a shed attempt (the destination rejected for overload)
        does **not** feed the circuit breaker — the peer is alive and
        telling us so, and opening the breaker on honesty would punish
        exactly the peers that shed instead of timing out.
        """
        ok, elapsed, _cause = self._call(src, dst, kind, payload_size,
                                         deadline)
        return (ok, elapsed)

    def _call(self, src: str, dst: str, kind: str, payload_size: int,
              deadline: Optional[Deadline]
              ) -> Tuple[bool, float, Optional[str]]:
        """The :meth:`call` engine; also reports the last failure cause."""
        metrics = self.network.metrics
        with self.network.tracer.span("channel.call", kind=kind, src=src,
                                      dst=dst) as span:
            elapsed = 0.0
            attempts = 0
            outcome = "exhausted"
            cause: Optional[str] = None
            max_attempts = self.policy.max_attempts
            view = self._view_of(src)
            if view is not None:
                if view.is_dead(dst):
                    metrics.inc("net.breaker_fastfails")
                    metrics.inc("channel.membership_fastfails", kind=kind)
                    span.set_attr("attempts", 0)
                    span.set_attr("outcome", "membership_fastfail")
                    return (False, 0.0, "membership_fastfail")
                if view.suspicious(dst, self.network.sim.now):
                    max_attempts = 1
            for attempt in range(max_attempts):
                now = self.network.sim.now
                if deadline is not None and deadline.expired(now, elapsed):
                    # nobody is waiting for this answer any more: fail
                    # fast instead of issuing a doomed attempt
                    metrics.inc("overload.deadline_expired", kind=kind)
                    outcome = cause = "deadline_expired"
                    break
                if view is None and self.breaker is not None \
                        and not self.breaker.allow(dst, now):
                    metrics.inc("net.breaker_fastfails")
                    self._export_breaker_state(dst)
                    outcome = "breaker_fastfail"
                    cause = cause or "breaker_fastfail"
                    break
                attempts += 1
                future = self.network.rpc_issue(src, dst, kind=kind,
                                                payload_size=payload_size)
                ok, rtt = future.value
                cause = future.cause
                elapsed += rtt
                if ok:
                    if view is not None:
                        view.observe_contact(dst, now)
                    elif self.breaker is not None:
                        self.breaker.record_success(dst)
                        self._export_breaker_state(dst)
                    if self.retry_budget is not None:
                        self.retry_budget.on_success()
                    span.set_attr("attempts", attempts)
                    span.set_attr("outcome", "ok")
                    return (True, elapsed, None)
                if view is None and self.breaker is not None \
                        and cause != "overloaded":
                    if self.breaker.record_failure(dst, now):
                        metrics.inc("net.breaker_trips")
                    self._export_breaker_state(dst)
                if attempt + 1 < max_attempts:
                    if self.retry_budget is not None \
                            and not self.retry_budget.try_spend():
                        metrics.inc("overload.budget_exhausted", kind=kind)
                        outcome = "budget_exhausted"
                        break
                    metrics.inc("net.retries")
                    backoff = self.policy.backoff(attempt, self._rng)
                    elapsed += backoff
                    span.add_cost(backoff)
            span.set_attr("attempts", attempts)
            span.set_attr("outcome", outcome)
            return (False, elapsed, cause)

    def call_issue(self, src: str, dst: str, kind: str = "rpc",
                   payload_size: int = 64,
                   deadline: Optional[Deadline] = None) -> SimFuture:
        """Issue one logical call as a completion token.

        The call's retries and backoffs remain internally sequential
        (each retry depends on the previous timeout); what the future
        adds is the ability to overlap *independent* calls: issue one per
        destination and combine with
        :func:`repro.overlay.simulator.quorum_of` /
        :func:`~repro.overlay.simulator.gather`.  Draw order is exactly
        a sequential loop's.  The future's ``cause`` carries the last
        attempt's failure cause (``"overloaded"`` for a shed), so quorum
        layers can price sheds differently from timeouts.
        """
        ok, elapsed, cause = self._call(src, dst, kind, payload_size,
                                        deadline)
        return self.network.sim.future(elapsed, value=(ok, elapsed), ok=ok,
                                       cause=cause)

    def hedged(self, src: str, dsts: Sequence[str], kind: str = "rpc",
               payload_size: int = 64, deadline: Optional[Deadline] = None
               ) -> Tuple[bool, Optional[str], float]:
        """Race a request across replica holders; first success wins.

        Each candidate gets one attempt (the hedge replaces the retry);
        returns ``(ok, winner, elapsed)``.

        With a membership view for ``src`` the candidates are reordered
        by health score first — healthy holders are probed before
        suspects, confirmed-dead ones last (still probed: on this
        last-resort path a false confirmation must not lose the read).

        This is true hedging on the virtual clock: candidate ``i``
        launches at offset ``i * hedge_delay``, launching stops once an
        earlier request has already succeeded, the earliest success wins
        and cancels the losers, and ``elapsed`` is the winner's
        completion offset (every launched probe's, when none succeeds).
        """
        metrics = self.network.metrics
        with self.network.tracer.span("channel.hedged", kind=kind,
                                      src=src) as span:
            view = self._view_of(src)
            if view is not None:
                dsts = self.membership.order_by_health(src, dsts)
            launched = []  # (launch offset, dst, future), launch order
            for i, dst in enumerate(dsts):
                launch_at = i * self.hedge_delay
                first_win = min((offset + future.latency
                                 for offset, _dst, future in launched
                                 if future.ok), default=None)
                if first_win is not None and first_win <= launch_at:
                    break  # an earlier request won before this hedge fires
                now = self.network.sim.now
                if deadline is not None and deadline.expired(now, launch_at):
                    metrics.inc("overload.deadline_expired", kind=kind)
                    break
                if i > 0:
                    metrics.inc("net.hedges")
                if view is None and self.breaker is not None \
                        and not self.breaker.allow(dst, now):
                    metrics.inc("net.breaker_fastfails")
                    self._export_breaker_state(dst)
                    continue
                future = self.network.rpc_issue(src, dst, kind=kind,
                                                payload_size=payload_size)
                launched.append((launch_at, dst, future))
                if future.ok:
                    if view is not None:
                        view.observe_contact(dst, now)
                    elif self.breaker is not None:
                        self.breaker.record_success(dst)
                        self._export_breaker_state(dst)
                elif view is None and self.breaker is not None \
                        and future.cause != "overloaded":
                    if self.breaker.record_failure(dst, now):
                        metrics.inc("net.breaker_trips")
                    self._export_breaker_state(dst)
            successes = sorted(
                (offset + future.latency, future.seq, dst, future)
                for offset, dst, future in launched if future.ok)
            if successes:
                elapsed, _seq, winner, winning = successes[0]
                for _offset, _dst, future in launched:
                    if future is not winning:
                        future.cancel()
                span.set_attr("winner", winner)
                span.settle_cost(elapsed)
                return (True, winner, elapsed)
            elapsed = max((offset + future.latency
                           for offset, _dst, future in launched), default=0.0)
            span.set_attr("winner", None)
            span.settle_cost(elapsed)
            return (False, None, elapsed)
