"""Kademlia DHT — the second structured overlay (XOR metric, k-buckets).

Included alongside Chord because several surveyed DOSNs (Cachet's FreePastry
substrate, PeerSoN's OpenDHT) use prefix/XOR-routing DHTs rather than ring
DHTs; experiment E5 shows both resolve lookups in O(log n) steps, which is
the survey's actual claim ("queries will be resolved in a limited number of
steps"), with different constants.

Implemented: 64-bit XOR identifier space, k-buckets with least-recently-seen
ordering, iterative ``alpha``-parallel node lookup, and STORE/FIND_VALUE on
the ``k`` closest nodes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import (DeadlineExceededError, LookupError_,
                              OverlayError, StorageError)
from repro.faults.overload import Deadline
from repro.overlay.network import SimNode

ID_BITS = 64
#: concurrent FIND queries per lookup round (Maymounkov and Mazieres'
#: suggested value)
ALPHA = 3


def kad_id(name: str) -> int:
    """Hash a name/key onto the XOR identifier space."""
    return int.from_bytes(
        hashlib.sha256(b"repro/kad/" + name.encode()).digest()[:8], "big")


def xor_distance(a: int, b: int) -> int:
    """The Kademlia metric."""
    return a ^ b


@dataclass
class KadLookupResult:
    """Outcome of one iterative lookup."""

    closest: List[str]
    hops: int            # number of query rounds
    rpcs: int            # total FIND_NODE RPCs issued
    value: Optional[bytes] = None


class KademliaNode(SimNode):
    """One Kademlia peer: k-buckets plus a local store."""

    def __init__(self, name: str, k: int = 8) -> None:
        super().__init__(name)
        self.kad_id = kad_id(name)
        self.k = k
        #: bucket index -> node names, least-recently-seen first
        self.buckets: List[List[str]] = [[] for _ in range(ID_BITS)]
        self.store: Dict[str, bytes] = {}

    def bucket_index(self, other_id: int) -> int:
        """Which bucket an id belongs in (shared-prefix length based)."""
        distance = xor_distance(self.kad_id, other_id)
        if distance == 0:
            raise OverlayError("node cannot bucket itself")
        return distance.bit_length() - 1

    def observe(self, other: str) -> None:
        """Record contact with a peer (move-to-tail, bounded bucket)."""
        other_id = kad_id(other)
        if other_id == self.kad_id:
            return
        bucket = self.buckets[self.bucket_index(other_id)]
        if other in bucket:
            bucket.remove(other)
            bucket.append(other)
        elif len(bucket) < self.k:
            bucket.append(other)
        # A full bucket drops the newcomer (classic Kademlia favours
        # long-lived contacts).

    def closest_known(self, target_id: int, count: int) -> List[str]:
        """The ``count`` known peers closest to ``target_id``."""
        known = [name for bucket in self.buckets for name in bucket]
        known.sort(key=lambda name: xor_distance(kad_id(name), target_id))
        return known[:count]


class KademliaOverlay:
    """A Kademlia overlay over a :class:`repro.fabric.Fabric`.

    As with :class:`~repro.overlay.chord.ChordRing`, pass the fabric;
    the overlay reads its network and resilient channel from it.
    """

    def __init__(self, fabric: Any, k: int = 8) -> None:
        from repro.fabric import require_fabric  # avoids an import cycle
        self.fabric = require_fabric(fabric, "KademliaOverlay")
        self.network = self.fabric.network
        self.k = k
        #: the :class:`repro.faults.ReliableChannel` for FIND/STORE RPCs
        #: (from the fabric) — Kademlia's shortlist already routes around
        #: unresponsive peers, so retries alone recover most transient-
        #: loss failures.
        self.channel = self.fabric.channel
        self.nodes: Dict[str, KademliaNode] = {}

    def add_node(self, name: str) -> KademliaNode:
        """Register a peer."""
        node = KademliaNode(name, k=self.k)
        self.nodes[name] = node
        self.network.register(node)
        if self.fabric.adversary is not None:
            self.fabric.adversary.enroll(name, "kad")
        return node

    def bootstrap(self) -> None:
        """Populate every node's buckets from the global membership.

        Equivalent to each node having completed its join lookups; gives the
        steady-state routing tables the lookup experiments assume.
        """
        names = list(self.nodes)
        for node in self.nodes.values():
            for other in names:
                node.observe(other)

    # -- iterative lookup ---------------------------------------------------------

    def lookup(self, start: str, key: str, find_value: bool = False,
               deadline: Optional[Deadline] = None,
               distrust: Optional[frozenset] = None,
               visited: Optional[Set[str]] = None,
               _single_path: bool = False) -> KadLookupResult:
        """Iterative FIND_NODE / FIND_VALUE from ``start`` toward ``key``.

        ``ALPHA`` concurrent queries per round (charged as RPCs); terminates
        when a round fails to improve the closest-seen distance, like the
        original protocol.

        Latency model: rounds are dependent (each consumes the previous
        round's answers) and always sum; *within* a round the ALPHA
        queries are the protocol's namesake concurrency, so each round is
        a parallel span and its queries roll up as max.  The deadline is
        charged the same critical path: each round costs its slowest
        query, and every query of a round sees the budget left when the
        round started.

        As in :meth:`ChordRing.lookup <repro.overlay.chord.ChordRing
        .lookup>`, a ``deadline`` (minted from the fabric's overload
        config when not supplied) is checked before every FIND RPC and
        decremented by the time already spent; exhaustion raises
        :class:`~repro.exceptions.DeadlineExceededError`.

        Adversary semantics mirror the Chord lookup's: compromised
        responders may withhold answers or return forged closest-node
        sets, and with a defense configured the public entry point
        delegates to :func:`~repro.adversary.defense
        .defended_kad_lookup` (``distrust`` / ``visited`` /
        ``_single_path`` are its per-path re-entry surface).
        """
        adv = self.fabric.adversary
        if adv is not None and adv.config.defense is not None \
                and not _single_path:
            from repro.adversary.defense import defended_kad_lookup
            return defended_kad_lookup(self, start, key,
                                       find_value=find_value,
                                       deadline=deadline)
        defense = adv.config.defense if adv is not None else None
        target_id = kad_id(key)
        origin = self.nodes.get(start)
        if origin is None or not origin.online:
            raise LookupError_(f"start node {start!r} is not online")
        if deadline is None:
            deadline = self.fabric.mint_deadline()
        shortlist = origin.closest_known(target_id, self.k)
        if not shortlist:
            raise LookupError_("empty routing table; bootstrap first")
        view = None
        if self.fabric.membership is not None:
            view = self.fabric.membership.view_of(start)
        #: self-reported ids a bare client has no way to verify — real
        #: Kademlia nodes learn peer ids from routing responses, so a
        #: forged (chosen) id ranks wherever the forger placed it.  With
        #: certification the forged answers never get this far, and an
        #: honest claim's certified id equals the true position, so the
        #: map stays empty (and with no adversary it always is —
        #: ``eff_id`` then reduces to ``kad_id``, byte-identical).
        claimed_ids: Dict[str, int] = {}

        def eff_id(name: str) -> int:
            return claimed_ids.get(name) if name in claimed_ids \
                else kad_id(name)

        with self.network.tracer.span("kad.lookup", key=key,
                                      start=start) as span:
            queried: Set[str] = set()
            hops = 0
            rpcs = 0
            spent = 0.0
            best = min(xor_distance(eff_id(n), target_id) for n in shortlist)
            while True:
                # Peers the start's membership view has confirmed dead
                # are skipped without paying for the probe; XOR distance
                # still decides the order among the believed-alive.
                candidates = [n for n in shortlist if n not in queried
                              and (view is None or not view.is_dead(n))
                              and (not distrust or n not in distrust)]
                candidates.sort(
                    key=lambda n: xor_distance(eff_id(n), target_id))
                batch = candidates[:ALPHA]
                if not batch:
                    break
                hops += 1
                improved = False
                slowest = 0.0
                with self.network.tracer.span("kad.round", parallel=True,
                                              round=hops):
                    for peer_name in batch:
                        if deadline is not None and deadline.expired(
                                self.network.sim.now, spent):
                            self.network.metrics.inc(
                                "overload.deadline_expired", kind="kad_find")
                            raise DeadlineExceededError(
                                f"kad lookup for {key!r} ran out of budget "
                                f"after {rpcs} RPCs ({spent:.3f}s spent)")
                        queried.add(peer_name)
                        if visited is not None:
                            visited.add(peer_name)
                        ok, t = self.fabric.rpc(
                            start, peer_name, kind="kad_find",
                            deadline=None if deadline is None
                            else deadline.minus(spent))
                        slowest = max(slowest, t)
                        rpcs += 1
                        if not ok:
                            continue
                        answer = None
                        if adv is not None and peer_name != start:
                            answer = adv.kad_answer(peer_name, key)
                        if answer is not None and answer.drop:
                            continue  # response withheld (transport paid)
                        peer = self.nodes[peer_name]
                        if find_value and key in peer.store \
                                and answer is None:
                            span.set_attr("rounds", hops)
                            span.set_attr("rpcs", rpcs)
                            span.set_attr("hit", True)
                            return KadLookupResult(
                                closest=sorted(
                                    shortlist,
                                    key=lambda n: xor_distance(
                                        eff_id(n), target_id))[:self.k],
                                hops=hops, rpcs=rpcs,
                                value=peer.store[key])
                        if answer is not None:
                            if defense is not None \
                                    and any(not adv.check_claim("kad", n,
                                                                cid)
                                            for n, cid in answer.claims):
                                adv.flag_cert_liar(peer_name,
                                                   overlay="kad")
                                continue  # discard the forged answer
                            learned_names = []
                            for n, cid in answer.claims:
                                learned_names.append(n)
                                if cid != kad_id(n):
                                    claimed_ids[n] = cid
                        else:
                            learned_names = peer.closest_known(target_id,
                                                               self.k)
                        for learned in learned_names:
                            if learned not in shortlist:
                                shortlist.append(learned)
                                d = xor_distance(eff_id(learned),
                                                 target_id)
                                if d < best:
                                    best = d
                                    improved = True
                spent += slowest
                shortlist.sort(
                    key=lambda n: xor_distance(eff_id(n), target_id))
                shortlist = shortlist[:self.k * 2]
                if not improved and all(n in queried
                                        for n in shortlist[:self.k]):
                    break
            span.set_attr("rounds", hops)
            span.set_attr("rpcs", rpcs)
            return KadLookupResult(
                closest=shortlist[:self.k], hops=hops, rpcs=rpcs)

    # -- storage --------------------------------------------------------------------

    def put(self, start: str, key: str, value: bytes) -> KadLookupResult:
        """Store on the k closest live nodes to the key."""
        with self.network.tracer.span("kad.put", key=key, start=start):
            return self._put_inner(start, key, value)

    def _put_inner(self, start: str, key: str,
                   value: bytes) -> KadLookupResult:
        result = self.lookup(start, key)
        stored = 0
        for name in result.closest:
            node = self.nodes[name]
            if not node.online:
                continue
            ok, _ = self.fabric.rpc(start, name, kind="kad_store")
            if self.channel is not None and not ok:
                continue  # the resilient path only counts confirmed stores
            node.store[key] = value
            stored += 1
        if stored == 0:
            raise StorageError(f"no live node accepted key {key!r}")
        return result

    def get(self, start: str, key: str) -> Tuple[bytes, KadLookupResult]:
        """FIND_VALUE; raises :class:`StorageError` when nothing holds it."""
        with self.network.tracer.span("kad.get", key=key, start=start):
            result = self.lookup(start, key, find_value=True)
            if result.value is None:
                raise StorageError(f"key {key!r} not found in the overlay")
            return result.value, result
