"""Overload protection: service queues, deadlines, retry budgets.

The fair-weather simulator prices only wire latency: a peer absorbs any
number of concurrent RPCs for free, so a hotspot can never *collapse* —
exactly the failure mode real DOSNs die of (replica reads multiply load
on data holders; retry storms keep a recovering peer saturated long
after the original spike has passed).  This module supplies the four
mechanisms that make overload survivable, and the configuration surface
that threads them through the stack:

* :class:`ServiceConfig` — every peer gets a service time and a bounded
  FIFO queue; :meth:`repro.overlay.network.SimNetwork.rpc_issue` charges
  queueing delay on top of wire latency, and a full queue *sheds* the
  request with a typed ``overloaded`` fast-failure (an
  :class:`~repro.exceptions.OverloadedError` at the storage layer).  A
  shed costs one round trip; a timeout costs the full attempt timeout —
  that price gap is what makes load shedding pay.
* :class:`Deadline` — a propagated time budget.  Multi-hop lookups and
  quorum reads subtract elapsed virtual time hop by hop and fail fast
  (:class:`~repro.exceptions.DeadlineExceededError`) instead of issuing
  RPCs whose answers nobody will wait for.
* :class:`RetryBudget` — a token bucket shared per channel.  Retries
  draw tokens; successes refill them; an empty bucket turns a cluster's
  retry storm into single attempts until the system is healthy enough
  to earn the tokens back.
* :class:`AdaptiveTimeout` — per-destination EWMA of observed RTTs with
  a floor and ceiling, replacing the fixed ``4*RTT`` timeout constant,
  so a doomed attempt is abandoned after roughly what a healthy answer
  would have taken.

All of it is strictly opt-in: with :class:`OverloadConfig` unset
(``overload=None`` on :class:`repro.fabric.Fabric` /
:class:`repro.dosn.api.DosnConfig`), no service state exists, no code
path changes, and no RNG draw moves — committed experiment tables
regenerate byte-identically.  Experiment E18
(``benchmarks/bench_overload.py``) drives a hotspot spike that collapses
the unprotected stack metastably and shows this stack restoring goodput
once the spike ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional

from repro.exceptions import SimulationError

__all__ = ["AdaptiveTimeout", "AdaptiveTimeoutConfig", "Deadline",
           "OverloadConfig", "RetryBudget", "RetryBudgetConfig",
           "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """One peer's service model: processing rate plus a bounded queue.

    ``service_time`` is the virtual seconds one RPC occupies the peer;
    requests arriving while it is busy queue FIFO behind the backlog.
    ``queue_limit`` bounds the backlog (``None`` = unbounded, the
    collapse-prone baseline E18 measures).  ``shed_policy`` picks what a
    full queue does with the overflow:

    * ``"reject"`` — an immediate typed rejection rides back to the
      caller (cost: one round trip, no service time billed);
    * ``"drop"`` — the request is silently discarded and the caller
      waits out its attempt timeout (what an unprotected peer does).

    ``timeout`` is the fixed per-attempt client timeout that applies
    once a service model exists (a queued response slower than this
    reads as a timeout; the server still pays the wasted service time —
    the ingredient of metastable collapse).  An
    :class:`AdaptiveTimeoutConfig` replaces it with an RTT-tracking
    estimate.
    """

    service_time: float = 0.02
    queue_limit: Optional[int] = 16
    shed_policy: str = "reject"
    timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.service_time <= 0:
            raise SimulationError("service_time must be positive")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise SimulationError("queue_limit must be None or >= 1")
        if self.shed_policy not in ("reject", "drop"):
            raise SimulationError(
                f"shed_policy must be 'reject' or 'drop' "
                f"(got {self.shed_policy!r})")
        if self.timeout <= 0:
            raise SimulationError("timeout must be positive")


@dataclass(frozen=True)
class AdaptiveTimeoutConfig:
    """EWMA attempt-timeout constants (see :class:`AdaptiveTimeout`).

    Passing an instance (``OverloadConfig(adaptive_timeout=
    AdaptiveTimeoutConfig())``) switches adaptive timeouts on; every
    value is a class constant, so the instance takes no arguments.
    """

    #: EWMA weight of each new RTT sample
    alpha: ClassVar[float] = 0.2
    #: attempt timeout as a multiple of the smoothed RTT
    multiplier: ClassVar[float] = 3.0
    #: lower clamp on the attempt timeout (virtual seconds)
    floor: ClassVar[float] = 0.25
    #: upper clamp on the attempt timeout (virtual seconds)
    ceiling: ClassVar[float] = 2.0


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Token-bucket sizing for a channel's :class:`RetryBudget`."""

    capacity: float = 20.0
    refill_per_success: float = 0.2

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SimulationError("retry budget capacity must be positive")
        if self.refill_per_success < 0:
            raise SimulationError("refill_per_success must be >= 0")


@dataclass(frozen=True)
class OverloadConfig:
    """The overload-protection stack, as one opt-in configuration knob.

    Every field is independently optional so experiments can ablate:
    ``service`` installs the per-peer queue model on the network,
    ``op_budget`` (virtual seconds) mints a :class:`Deadline` per
    logical operation (lookup, quorum read) — ``None`` disables deadline
    propagation — ``retry_budget`` caps channel-wide retry
    amplification, and ``adaptive_timeout`` replaces the fixed attempt
    timeout with the EWMA estimator.

    ``OverloadConfig(service=ServiceConfig(queue_limit=None),
    op_budget=None, retry_budget=None, adaptive_timeout=None)`` is the
    *bare* service model: queueing is priced but nothing protects
    against it — the configuration E18 collapses.
    """

    service: Optional[ServiceConfig] = field(default_factory=ServiceConfig)
    op_budget: Optional[float] = 2.0
    retry_budget: Optional[RetryBudgetConfig] = field(
        default_factory=RetryBudgetConfig)
    adaptive_timeout: Optional[AdaptiveTimeoutConfig] = field(
        default_factory=AdaptiveTimeoutConfig)

    def __post_init__(self) -> None:
        if self.op_budget is not None and self.op_budget <= 0:
            raise SimulationError("op_budget must be None or positive")

    def mint_deadline(self, now: float) -> Optional["Deadline"]:
        """A fresh per-operation deadline (``None`` when disabled)."""
        if self.op_budget is None:
            return None
        return Deadline(now + self.op_budget)


class Deadline:
    """An absolute virtual-time budget propagated through an operation.

    The accounted-RPC shortcut keeps the clock frozen during a logical
    operation, so layers carry their *spent* time explicitly: a lookup
    that has accrued ``spent`` seconds of RTT checks
    ``deadline.remaining(now) <= spent`` before paying for the next hop,
    and hands the callee ``deadline.minus(spent)`` so the sub-call sees
    only what is left.  Expired deadlines fail fast — the doomed RPC is
    never issued, which is the whole point.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = expires_at

    @classmethod
    def after(cls, now: float, budget: float) -> "Deadline":
        """A deadline ``budget`` virtual seconds from ``now``."""
        return cls(now + budget)

    def remaining(self, now: float) -> float:
        """Budget left at virtual time ``now`` (negative = expired)."""
        return self.expires_at - now

    def expired(self, now: float, spent: float = 0.0) -> bool:
        """Whether ``spent`` seconds of work exhaust the budget."""
        return self.remaining(now) <= spent

    def minus(self, spent: float) -> "Deadline":
        """The deadline as seen after ``spent`` seconds of frozen-clock
        work (hop N+1's view of hop N's budget)."""
        return Deadline(self.expires_at - spent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(expires_at={self.expires_at:.4f})"


class RetryBudget:
    """A token bucket capping cluster-wide retry amplification.

    Shared per :class:`~repro.faults.ReliableChannel` (i.e. per fabric):
    every retry anywhere draws one token, every successful call refills
    ``refill_per_success`` up to ``capacity``.  Under a load spike the
    bucket drains and calls degrade to single attempts — the retry storm
    stops feeding the overload — and recovery refills it organically,
    because refills only come from successes.  The channel counts each
    denied retry as ``overload.budget_exhausted``
    (``NetworkStats.budget_exhausted``).
    """

    __slots__ = ("capacity", "refill_per_success", "tokens")

    def __init__(self, config: Optional[RetryBudgetConfig] = None) -> None:
        config = config or RetryBudgetConfig()
        self.capacity = config.capacity
        self.refill_per_success = config.refill_per_success
        self.tokens = config.capacity

    def try_spend(self, cost: float = 1.0) -> bool:
        """Draw ``cost`` tokens for a retry; False when the bucket is dry."""
        if self.tokens < cost:
            return False
        self.tokens -= cost
        return True

    def on_success(self) -> None:
        """A call succeeded: earn back part of a token."""
        self.tokens = min(self.capacity,
                          self.tokens + self.refill_per_success)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryBudget(tokens={self.tokens:.2f}/"
                f"{self.capacity:.0f})")


class AdaptiveTimeout:
    """Per-destination EWMA attempt timeouts with a floor and ceiling.

    Each observed successful RTT updates the destination's EWMA; an
    attempt timeout is ``clamp(multiplier * ewma, floor, ceiling)``.
    Destinations never observed fall back to the caller-supplied
    default (the fixed :attr:`ServiceConfig.timeout`, or the legacy
    ``4*RTT`` when no service model exists), so the estimator can only
    sharpen the constant, never invent one from nothing.
    """

    __slots__ = ("config", "_ewma")

    def __init__(self, config: Optional[AdaptiveTimeoutConfig] = None
                 ) -> None:
        self.config = config or AdaptiveTimeoutConfig()
        self._ewma: Dict[str, float] = {}

    def observe(self, dst: str, rtt: float) -> None:
        """Feed one successful round trip to ``dst`` into the estimate."""
        previous = self._ewma.get(dst)
        if previous is None:
            self._ewma[dst] = rtt
        else:
            alpha = self.config.alpha
            self._ewma[dst] = (1.0 - alpha) * previous + alpha * rtt

    def timeout_for(self, dst: str) -> Optional[float]:
        """The attempt timeout for ``dst`` (``None`` before any sample)."""
        ewma = self._ewma.get(dst)
        if ewma is None:
            return None
        cfg = self.config
        return min(cfg.ceiling, max(cfg.floor, cfg.multiplier * ewma))
