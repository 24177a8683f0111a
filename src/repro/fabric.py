"""The :class:`Fabric`: one context object for the whole simulation stack.

Before this existed, every layer threaded its collaborators by hand —
``Simulator`` into ``SimNetwork``, both into ``ChordRing``, a
``ReliableChannel`` into the ring *and* the backend, and no way to hand a
tracer to any of them.  The Fabric bundles the five cross-cutting objects

    ``sim`` · ``network`` · ``channel`` · ``tracer`` · ``metrics``

plus a lazily-split ``rng``, and is what you pass to ``ChordRing``,
``KademliaOverlay``, ``DHTBackend`` and ``DosnNetwork``.

Construction::

    from repro.fabric import Fabric

    fab = Fabric.create(seed=7)                      # plain fabric
    fab = Fabric.create(seed=7, tracing=True)        # with a real tracer
    fab = Fabric.create(seed=7, faults=plan,         # chaos + resilience
                        resilient=True)
    ring = ChordRing(fab, replication=3)             # channel wired in

Determinism note: the RNG split order matches the pre-Fabric code exactly
(``network`` first, then ``reliable-channel`` when resilient; the fabric's
own ``rng`` splits lazily on first use), so migrating a call site does not
move any experiment's random stream.
"""

from __future__ import annotations

import random as _random
from typing import Any, Optional

from repro.exceptions import SimulationError
from repro.faults.overload import OverloadConfig, RetryBudget
from repro.faults.resilience import (CircuitBreaker, ReliableChannel,
                                     RetryPolicy)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import Simulator

__all__ = ["Fabric"]


class Fabric:
    """Simulator + network + resilience + observability, as one handle."""

    def __init__(self, sim: Simulator, network: SimNetwork,
                 channel: Optional[ReliableChannel] = None,
                 tracer: Optional[Any] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 rng: Optional[_random.Random] = None,
                 overload: Optional[OverloadConfig] = None) -> None:
        if network.sim is not sim:
            raise SimulationError(
                "fabric network must run on the fabric simulator")
        self.sim = sim
        self.network = network
        self.channel = channel
        self.tracer = tracer if tracer is not None else network.tracer
        self.metrics = metrics if metrics is not None else network.metrics
        # Keep the network's view consistent with the fabric's.
        network.tracer = self.tracer
        network.metrics = self.metrics
        #: the attached :class:`repro.membership.SwimMembership` (None
        #: keeps every layer on the legacy oracle path, byte-identical)
        self.membership: Optional[Any] = None
        #: the attached :class:`repro.adversary.AdversaryModel` (None
        #: keeps lookups trusting and byte-identical; even attached, the
        #: adversary draws no RNG — its decisions are hash-derived)
        self.adversary: Optional[Any] = None
        #: the overload-protection config (None = fair-weather fabric,
        #: byte-identical).  Overlays and stores read
        #: :meth:`OverloadConfig.mint_deadline` from here to start a
        #: per-operation deadline at their public entry points.
        self.overload: Optional[OverloadConfig] = overload
        if overload is not None:
            network.install_overload(overload)
            if channel is not None and overload.retry_budget is not None:
                channel.retry_budget = RetryBudget(overload.retry_budget)
        self._rng = rng

    @classmethod
    def create(cls, seed: int = 0, latency: Optional[Any] = None,
               loss_rate: float = 0.0, faults: Optional[Any] = None,
               tracing: bool = False, wall_clock: bool = False,
               resilient: bool = False,
               retry: Optional[RetryPolicy] = None,
               breaker: Optional[CircuitBreaker] = None,
               overload: Optional[OverloadConfig] = None,
               adversary: Optional[Any] = None) -> "Fabric":
        """Build a full fabric from a seed.

        ``tracing=True`` installs a real :class:`~repro.obs.trace.Tracer`
        (``wall_clock=True`` additionally records segregated wall-clock
        span durations).  ``resilient=True`` — or passing ``retry`` /
        ``breaker`` — wires a :class:`ReliableChannel` that the overlays
        and backends pick up automatically.
        ``overload=OverloadConfig(...)`` installs the overload-protection
        stack (per-peer service queues + shedding on the network,
        deadline minting for lookups and quorum reads, a shared retry
        budget on the channel, adaptive attempt timeouts); ``None``
        keeps the fair-weather fabric byte-identical.
        ``adversary=AdversaryConfig(...)`` attaches an
        :class:`~repro.adversary.AdversaryModel` (routing-layer attacks
        and, with a ``defense``, the secure-lookup stack); ``None`` — or
        even an attached adversary, which draws nothing — leaves every
        RNG stream untouched.
        """
        sim = Simulator(seed)
        tracer = Tracer(lambda: sim.now, wall_clock=wall_clock) if tracing \
            else NOOP_TRACER
        metrics = MetricsRegistry()
        network = SimNetwork(sim, latency=latency, loss_rate=loss_rate,
                             faults=faults, tracer=tracer, metrics=metrics)
        channel = None
        if resilient or retry is not None or breaker is not None:
            channel = ReliableChannel(network, retry, breaker)
        fabric = cls(sim, network, channel=channel, tracer=tracer,
                     metrics=metrics, overload=overload)
        if adversary is not None:
            from repro.adversary import AdversaryModel
            AdversaryModel(fabric, adversary)  # attaches itself
        return fabric

    def attach_membership(self, membership: Any) -> None:
        """Install a membership service as the fabric's liveness source.

        Called by ``SwimMembership.__init__``; the channel (and, through
        ``fabric.membership``, the overlays and the repair daemon) pick
        it up from here.
        """
        if self.membership is not None:
            raise SimulationError(
                "a membership service is already attached to this fabric")
        self.membership = membership
        if self.channel is not None:
            self.channel.membership = membership

    def attach_adversary(self, adversary: Any) -> None:
        """Install an adversary model (called by its constructor)."""
        if self.adversary is not None:
            raise SimulationError(
                "an adversary model is already attached to this fabric")
        self.adversary = adversary

    @property
    def rng(self) -> _random.Random:
        """A fabric-scoped RNG, split from the seed on first use.

        Lazy so that fabrics which never draw from it leave the
        simulator's random stream untouched (exact pre-Fabric streams).
        """
        if self._rng is None:
            self._rng = self.sim.split_rng("fabric")
        return self._rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Fabric(nodes={len(self.network.nodes)}, "
                f"resilient={self.channel is not None}, "
                f"tracing={self.tracer.enabled})")


def require_fabric(fabric: Any, caller: str) -> "Fabric":
    """Return ``fabric`` if it is a :class:`Fabric`; raise otherwise."""
    if isinstance(fabric, Fabric):
        return fabric
    raise TypeError(
        f"{caller} expects a repro.fabric.Fabric "
        f"(got {type(fabric).__name__})")
