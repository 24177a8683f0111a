"""The secure-lookup defense stack: certification, voting, quarantine.

Three classic defenses against routing-layer adversaries, composed:

* **node-ID certification** (:mod:`repro.crypto.node_cert`) — every
  routing response's id claim is checked against a verified certificate
  binding ``id = H(pubkey)``; chosen IDs and unverifiable pubkeys are
  *provable* lies and the responder is quarantined on the spot;
* **redundant disjoint-path lookups** — :func:`defended_chord_lookup`
  runs ``successor_redundancy`` independent Chord paths (each path
  distrusts the peers earlier paths routed through, forcing route
  diversity) and settles the owner by majority vote;
  :func:`defended_kad_lookup` does the same with ``disjoint_paths``
  Kademlia lookups, voting on closest-set membership.  Path latencies
  settle through :func:`~repro.overlay.simulator.gather`: the
  redundancy costs the *max* path latency, like every other fan-out in
  the codebase;
* **quarantine** (:class:`Quarantine`) — provably-lying peers are banned
  from route selection immediately; certified-but-lying peers (true id,
  wrong answer — certification cannot catch them) are banned after
  ``suspect_threshold`` lost votes.  Bans feed the SWIM membership
  service (quarantined peers sort last in health-aware candidate
  ordering) and the circuit-breaker path (calls to them fast-fail until
  a half-open probe) when those are wired on the fabric.

The overlays delegate here from their public ``lookup`` entry points
whenever ``fabric.adversary`` carries a :class:`~repro.adversary.config
.DefenseConfig`, so quorum writes (coordinator routing) and every other
lookup consumer get the defended path with no call-site changes.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from repro.exceptions import LookupError_
from repro.overlay.simulator import gather

__all__ = ["Quarantine", "defended_chord_lookup", "defended_kad_lookup"]


class Quarantine:
    """Bans for lying peers, fed into membership and the breaker."""

    def __init__(self, defense, fabric) -> None:
        self.defense = defense
        self.fabric = fabric
        #: peers banned from route selection (never from being resolved
        #: *to* — a quarantined peer can still be a key's true owner)
        self.banned: Set[str] = set()
        #: lost disjoint-path votes per certified-but-lying peer
        self.suspicion: Dict[str, int] = {}
        #: why each banned peer was banned ("cert" / "outvoted")
        self.reasons: Dict[str, str] = {}

    def flag_provable(self, peer: str, reason: str) -> None:
        """A provable lie (failed certificate check): ban immediately."""
        if peer not in self.banned:
            self._ban(peer, reason)

    def flag_suspect(self, peer: str) -> None:
        """A lost majority vote; ban after ``suspect_threshold`` strikes."""
        if peer in self.banned:
            return
        strikes = self.suspicion.get(peer, 0) + 1
        self.suspicion[peer] = strikes
        if strikes >= self.defense.suspect_threshold:
            self._ban(peer, "outvoted")

    def _ban(self, peer: str, reason: str) -> None:
        self.banned.add(peer)
        self.reasons[peer] = reason
        self.fabric.metrics.inc("adversary.quarantined", reason=reason)
        membership = self.fabric.membership
        if membership is not None:
            membership.quarantine(peer)
        channel = self.fabric.channel
        if channel is not None and channel.breaker is not None:
            channel.breaker.quarantine(peer, self.fabric.sim.now)

    def order_last(self, peers: List[str]) -> List[str]:
        """Stable reorder with banned peers last (read-path helper)."""
        if not self.banned:
            return peers
        return sorted(peers, key=lambda p: p in self.banned)


def defended_chord_lookup(ring, start: str, key: str, max_hops: int = 64,
                          deadline=None):
    """Redundant Chord lookup: disjoint paths + majority successor vote.

    Up to ``2 * successor_redundancy + 1`` single-path lookups run until
    ``successor_redundancy`` of them produce an owner claim; each path
    distrusts the intermediate responders of earlier paths (plus every
    quarantined peer), so a single compromised region cannot answer all
    of them.  Ids are certified, so the vote is *successor-verified*
    first: a node's ring position is ``H(pubkey)`` and unforgeable, so no
    certified node can sit between the key and its true owner — any vote
    naming a certifiably looser owner than the tightest claim on the
    table is a lie and is discarded before the majority settles (the
    surviving votes necessarily agree; ties among equal claims break to
    the smallest name).  Losing resolvers are flagged as suspects (once
    per lookup each).  The returned
    :class:`~repro.overlay.chord.LookupResult` carries the winning path's
    hop count and the :func:`gather`-settled latency of all voting paths.
    """
    from repro.overlay.chord import _SPACE, LookupResult, chord_id

    adv = ring.fabric.adversary
    defense = adv.config.defense
    metrics = ring.network.metrics
    sim = ring.network.sim
    votes_needed = defense.successor_redundancy
    banned = adv.quarantine.banned
    used: Set[str] = set()
    votes = []
    futures = []
    failed_paths = 0
    attempts = 0
    with ring.network.tracer.span("chord.lookup.defended", key=key,
                                  start=start, parallel=True) as span:
        while attempts < 2 * votes_needed + 1 and len(votes) < votes_needed:
            attempts += 1
            visited: Set[str] = set()
            try:
                result = ring.lookup(
                    start, key, max_hops=max_hops, deadline=deadline,
                    distrust=frozenset(used | banned), visited=visited,
                    _single_path=True)
                votes.append(result)
                futures.append(sim.future(result.rtt))
            except LookupError_:
                failed_paths += 1
            used.update(visited)
        if not votes:
            raise LookupError_(
                f"defended lookup for {key!r}: all {attempts} disjoint "
                "paths failed")
        elapsed = gather(futures)
        # Successor verification: certified positions are unforgeable,
        # so the owner claim with the smallest clockwise distance from
        # the key is the only one that can be the key's successor —
        # every looser claim is discarded as a lie before the majority
        # settles.
        key_id = chord_id(key)
        tight = min((chord_id(v.owner) - key_id) % _SPACE for v in votes)
        eligible = [v for v in votes
                    if (chord_id(v.owner) - key_id) % _SPACE == tight]
        tally = Counter(vote.owner for vote in eligible)
        top = max(tally.values())
        winner = min(name for name, count in tally.items() if count == top)
        if all(vote.owner == winner for vote in votes):
            metrics.inc("lookup.disjoint_agreement", overlay="chord")
        else:
            metrics.inc("lookup.poisoned", overlay="chord",
                        cause="outvoted")
            liars = {vote.resolver for vote in votes
                     if vote.owner != winner and vote.resolver is not None}
            for liar in sorted(liars):
                adv.flag_outvoted(liar, overlay="chord")
        winning = next(vote for vote in votes if vote.owner == winner)
        span.set_attr("paths", len(votes) + failed_paths)
        span.set_attr("agreement", top / len(votes))
        span.set_attr("owner", winner)
        return LookupResult(
            owner=winner, hops=winning.hops, rtt=elapsed,
            failed_probes=failed_paths + sum(v.failed_probes
                                             for v in votes),
            resolver=winning.resolver)


def defended_kad_lookup(overlay, start: str, key: str,
                        find_value: bool = False, deadline=None):
    """``d`` disjoint Kademlia lookups, closest sets unioned.

    Ids are certified, so the paths' closest sets are *unioned*: a
    learned name is a certified-real node at an unforgeable position the
    client re-sorts by true XOR distance, so knowledge only one path
    surfaced (bounded k-buckets make closeness knowledge scarce) is
    kept, and a forged set can only add far-away accomplices that sort
    last.  Top-candidate disagreement between paths is counted
    (``lookup.disjoint_agreement`` / ``lookup.poisoned``).  With ``find_value`` the settled set is then
    probed in XOR order for the value (compromised holders withhold it;
    honest ones serve it), so a single honest live holder suffices.
    """
    from repro.overlay.kademlia import KadLookupResult, kad_id, xor_distance

    adv = overlay.fabric.adversary
    defense = adv.config.defense
    metrics = overlay.network.metrics
    target_id = kad_id(key)
    paths_wanted = defense.disjoint_paths
    banned = adv.quarantine.banned
    used: Set[str] = set()
    paths = []
    failed_paths = 0
    attempts = 0
    with overlay.network.tracer.span(
            "kad.lookup.defended", key=key, start=start,
            parallel=True) as span:
        while attempts < 2 * paths_wanted + 1 and len(paths) < paths_wanted:
            attempts += 1
            visited: Set[str] = set()
            try:
                result = overlay.lookup(
                    start, key, find_value=False, deadline=deadline,
                    distrust=frozenset(used | banned), visited=visited,
                    _single_path=True)
                paths.append(result)
            except LookupError_:
                failed_paths += 1
            used.update(visited)
        if not paths:
            raise LookupError_(
                f"defended kad lookup for {key!r}: all {attempts} "
                "disjoint paths failed")
        agreed = sorted(
            set().union(*(set(path.closest) for path in paths)),
            key=lambda n: xor_distance(kad_id(n), target_id))
        closest = agreed[:overlay.k]
        tops = {path.closest[0] for path in paths if path.closest}
        if len(tops) <= 1:
            metrics.inc("lookup.disjoint_agreement", overlay="kad")
        else:
            metrics.inc("lookup.poisoned", overlay="kad", cause="outvoted")
        value = None
        rpcs = sum(path.rpcs for path in paths)
        if find_value:
            for name in closest:
                node = overlay.nodes.get(name)
                if node is None or not node.online:
                    continue
                ok, _ = overlay.fabric.rpc(start, name, kind="kad_fetch")
                rpcs += 1
                if not ok or adv.withholds(name, key):
                    continue
                if key in node.store:
                    value = node.store[key]
                    break
        span.set_attr("paths", len(paths) + failed_paths)
        span.set_attr("agreed", len(agreed))
        return KadLookupResult(
            closest=closest, hops=max(path.hops for path in paths),
            rpcs=rpcs, value=value)
