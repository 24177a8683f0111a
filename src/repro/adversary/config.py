"""Configuration surface for the routing-layer adversary (PR-10 pattern).

Mirrors :class:`repro.faults.OverloadConfig` and
:class:`repro.membership.MembershipConfig`: a frozen dataclass passed to
``Fabric.create(adversary=...)`` / ``DosnConfig(adversary=...)``, where
``None`` keeps every legacy code path — and every RNG stream —
byte-identical.  Unlike those subsystems the adversary never splits an
RNG at all: every attack decision is derived by hashing
``(salt, responder, key)``, so even an *installed* adversary moves no
draw on the simulator's stream (the property tests pin this down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, FrozenSet, Optional, Tuple

from repro.exceptions import ReproError

#: Malicious routing behaviors a compromised peer may exhibit.
#: ``misroute`` — hand the lookup to an accomplice instead of the honest
#: next hop; ``eclipse`` — claim an accomplice owns the key (forged
#: closest-node / successor claim); ``drop`` — swallow the query;
#: ``chosen_id`` — present a forged node ID adjacent to the key on
#: eclipse/misroute claims (what ID certification exists to kill).
BEHAVIORS: Tuple[str, ...] = ("misroute", "eclipse", "drop", "chosen_id")


@dataclass(frozen=True)
class DefenseConfig:
    """The secure-lookup defense stack (every defense always on).

    Passing an instance (``AdversaryConfig(defense=DefenseConfig())``)
    switches the stack on; its values are class constants, so the
    instance takes no arguments.  Every routing response's node-ID claim
    is checked against a verified certificate binding ``id = H(pubkey)``;
    ``disjoint_paths`` / ``successor_redundancy`` independent lookup
    paths (Kademlia / Chord respectively) settle the answer by majority
    vote (the paths overlap in time); and provably-lying peers (and
    repeatedly-outvoted ones, after ``suspect_threshold`` strikes) are
    quarantined from routing, feeding the ban into SWIM membership and
    the circuit breaker when those are wired.
    """

    #: independent Kademlia lookup paths per defended lookup
    disjoint_paths: ClassVar[int] = 3
    #: independent Chord lookup paths (owner votes) per defended lookup
    successor_redundancy: ClassVar[int] = 3
    #: lost votes before a certified-but-lying peer is quarantined
    suspect_threshold: ClassVar[int] = 2


@dataclass(frozen=True)
class AdversaryConfig:
    """An active routing adversary controlling a fraction of the peers.

    Which peers are compromised is a deterministic hash threshold over
    ``(seed_salt, name)`` — stable under roster order and independent of
    every RNG stream.  ``compromised`` overrides the threshold with an
    explicit set (contract tests pick their attackers).  A compromised
    responder attacks every query it answers that one of its
    ``behaviors`` applies to, picking among them by hashing
    ``(responder, key)``.  ``defense``
    is the :class:`DefenseConfig` to fight back with; ``None`` leaves
    lookups bare — the E19 baseline.
    """

    fraction: float = 0.2
    behaviors: Tuple[str, ...] = BEHAVIORS
    defense: Optional[DefenseConfig] = None
    seed_salt: int = 0
    compromised: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ReproError("fraction must be in [0, 1)")
        unknown = set(self.behaviors) - set(BEHAVIORS)
        if unknown:
            raise ReproError(
                f"unknown behaviors {sorted(unknown)}; pick from {BEHAVIORS}")
        if not self.behaviors:
            raise ReproError("behaviors must not be empty")
