"""Constants for the SWIM/phi-accrual membership service."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class MembershipConfig:
    """Protocol and estimator constants for :class:`SwimMembership`.

    Passing an instance (``DosnConfig(membership=MembershipConfig())``)
    switches the detector on; every value below is a class constant, so
    the instance takes no arguments.

    The values are sized for the simulated fabric's latency scale
    (tens of milliseconds per link): one probe round per virtual second,
    three indirect proxies, and phi thresholds that tolerate ~20% packet
    loss without false confirmations (E15 measures exactly this).

    ``suspect_phi``/``confirm_phi`` are phi-accrual suspicion levels: a
    phi of ``p`` means the estimator puts the odds that the peer is
    still alive and merely silent at ``10^-p`` given its observed
    evidence-gap distribution.  The confirm timeout is therefore *per
    peer and adaptive*: ``confirm_phi * mean_gap * ln(10)`` virtual
    seconds of silence, where ``mean_gap`` is learned online — a noisy
    link stretches the bound automatically instead of tripping a fixed
    threshold.
    """

    #: virtual seconds between probe rounds (every member probes one
    #: target per round, SWIM-style)
    protocol_period: ClassVar[float] = 1.0
    #: indirect ping-req proxies consulted when a direct probe fails
    k_indirect: ClassVar[int] = 3
    #: phi at which a destination is *deprioritized* (routing/channel)
    suspect_phi: ClassVar[float] = 3.0
    #: phi at which a suspected peer is confirmed dead
    confirm_phi: ClassVar[float] = 8.0
    #: membership updates piggybacked per direction per contact
    piggyback_limit: ClassVar[int] = 8
    #: sliding-window size of the per-peer evidence-gap estimator
    window: ClassVar[int] = 16
    #: prior mean evidence gap (seconds) before the window fills
    initial_interval: ClassVar[float] = 5.0
    #: floor for the estimated mean gap (keeps phi finite on chatty pairs)
    min_interval: ClassVar[float] = 0.25
    #: lambda for the per-update retransmission budget
    #: (``ceil(lambda * log2(n + 1))`` piggyback transmissions per update)
    gossip_budget_factor: ClassVar[float] = 3.0
    #: every this many protocol periods a member also probes one peer it
    #: has confirmed dead ("gossip to the dead").  Without it two halves
    #: of a healed partition — each having buried the other — would
    #: never exchange another message, so neither could ever refute.
    reclaim_every: ClassVar[int] = 4
