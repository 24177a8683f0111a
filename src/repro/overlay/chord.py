"""Chord distributed hash table — the structured control overlay.

Section II-B of the paper: "Most of the recent DOSNs use structured
organization and distributed hash tables (DHTs) for the lookup service.
Prpl, Peerson, Safebook and Cachet all utilize structured control overlay
... queries will be resolved in a limited number of steps."

Classic Chord (Stoica et al.) over the simulated network: an ``m``-bit
identifier ring, finger tables for O(log n) iterative lookup, successor
lists for fault tolerance, and key replication on the successor set.
Lookups are *accounted* through :meth:`SimNetwork.rpc`, so experiment E5
gets faithful hop and message counts, including retries around offline
peers under churn.

Both construction modes are provided: :meth:`ChordRing.build` computes
exact routing state for a static peer set (what the lookup experiments
use), and :meth:`ChordRing.join` + :meth:`ChordRing.stabilize_all`
implement the incremental protocol (exercised by the tests to show the
ring converges).  The ring sorts its peers by id once per membership
change and reads ownership, ring order and fingers from that index; it
also tracks whether its routing state is stale, so ``build`` is
idempotent.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import (DeadlineExceededError, LookupError_,
                              OverlayError, OverloadedError, StorageError)
from repro.faults.overload import Deadline
from repro.overlay.network import SimNode

#: Identifier-space size in bits.
M_BITS = 32
_SPACE = 1 << M_BITS


def chord_id(name: str) -> int:
    """Hash a node name or content key onto the identifier ring."""
    return int.from_bytes(
        hashlib.sha256(b"repro/chord/" + name.encode()).digest()[:8],
        "big") % _SPACE


def in_interval(x: int, a: int, b: int, inclusive_right: bool = False) -> int:
    """Ring-interval membership test ``x in (a, b)`` modulo 2^m."""
    if a < b:
        return a < x < b or (inclusive_right and x == b)
    if a > b:  # interval wraps zero
        return x > a or x < b or (inclusive_right and x == b)
    # a == b: the interval is the whole ring minus the endpoint.
    return x != a or inclusive_right


@dataclass
class LookupResult:
    """Outcome of one iterative lookup.

    ``resolver`` is the node whose answer named the owner — the peer a
    defended lookup holds accountable when the claim loses a
    disjoint-path vote (``None`` for direct replica reads).
    """

    owner: str
    hops: int
    rtt: float
    failed_probes: int
    resolver: Optional[str] = None


class ChordNode(SimNode):
    """One Chord peer: routing state plus a local key-value store."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.chord_id = chord_id(name)
        self.successors: List[str] = []   # successor list, nearest first
        self.predecessor: Optional[str] = None
        self.fingers: List[Optional[str]] = [None] * M_BITS
        self.store: Dict[str, bytes] = {}

    # -- routing-table reads (executed at the *queried* node) -----------------

    def closest_preceding(self, key_id: int, ring: "ChordRing",
                          avoid: Optional[Set[str]] = None) -> Optional[str]:
        """The best next hop: the closest live finger preceding ``key_id``.

        ``avoid`` lists peers a resilient lookup has already written off
        (unresponsive after retries), so routing detours around them.
        """
        for finger in reversed(self.fingers):
            if finger is None or (avoid is not None and finger in avoid):
                continue
            node = ring.nodes.get(finger)
            if node is None or not node.online:
                continue
            if in_interval(node.chord_id, self.chord_id, key_id):
                return finger
        for succ in self.successors:
            if avoid is not None and succ in avoid:
                continue
            node = ring.nodes.get(succ)
            if node is not None and node.online \
                    and in_interval(node.chord_id, self.chord_id, key_id):
                return succ
        return None

    def first_live_successor(self, ring: "ChordRing",
                             avoid: Optional[Set[str]] = None
                             ) -> Optional[str]:
        """The nearest online entry of the successor list."""
        for succ in self.successors:
            if avoid is not None and succ in avoid:
                continue
            if ring.network.is_online(succ):
                return succ
        return None


class ChordRing:
    """A Chord overlay over a :class:`repro.fabric.Fabric`.

    Pass the fabric; the ring reads its network, resilient channel, and
    tracer from it.
    """

    def __init__(self, fabric: Any, successor_list_size: int = 4,
                 replication: int = 1) -> None:
        from repro.fabric import require_fabric  # avoids an import cycle
        if replication < 1:
            raise OverlayError("replication factor must be >= 1")
        self.fabric = require_fabric(fabric, "ChordRing")
        self.network = self.fabric.network
        self.successor_list_size = successor_list_size
        self.replication = replication
        #: the :class:`repro.faults.ReliableChannel` (from the fabric);
        #: when set, every routing RPC gets retries/breakers and lookups
        #: route around peers that stay unresponsive after retries.
        self.channel = self.fabric.channel
        self.nodes: Dict[str, ChordNode] = {}
        self._by_id: Dict[int, ChordNode] = {}
        #: ``(ids, nodes)`` in ring order; ``None`` after a membership change
        self._index: Optional[Tuple[List[int], List[ChordNode]]] = None
        #: whether routing state may differ from what :meth:`build` computes
        self._stale = True

    # -- construction -----------------------------------------------------------

    def add_node(self, name: str) -> ChordNode:
        """Register a peer (routing state filled by build/join)."""
        node = ChordNode(name)
        if node.chord_id in self._by_id:
            raise OverlayError(
                f"chord id collision for {name!r}; rename the node")
        self.nodes[name] = node
        self._by_id[node.chord_id] = node
        self._index = None
        self._stale = True
        self.network.register(node)
        if self.fabric.adversary is not None:
            self.fabric.adversary.enroll(name, "chord")
        return node

    def _ring(self) -> Tuple[List[int], List[ChordNode]]:
        """Every peer's id and node in ring order, sorted once per change."""
        if self._index is None:
            ids = sorted(self._by_id)
            self._index = (ids, [self._by_id[i] for i in ids])
        return self._index

    def build(self) -> None:
        """Compute exact fingers/successors for the current static peer set.

        Idempotent: a no-op until ``add_node``, ``join`` or
        ``stabilize_all`` changes the routing state.
        """
        if not self._stale:
            return
        ids, ordered = self._ring()
        n = len(ordered)
        for index, node in enumerate(ordered):
            node.successors = [
                ordered[(index + k + 1) % n].node_id
                for k in range(min(self.successor_list_size, n - 1))
            ] or [node.node_id]
            node.predecessor = ordered[(index - 1) % n].node_id
            self._fill_fingers(node, ids, ordered)
        self._stale = False

    @staticmethod
    def _fill_fingers(node: ChordNode, ids: Sequence[int],
                      ordered: Sequence[ChordNode]) -> None:
        """Point each finger at the first of ``ordered`` (ids ``ids``) at
        or after its target, wrapping."""
        for bit in range(M_BITS):
            target = (node.chord_id + (1 << bit)) % _SPACE
            node.fingers[bit] = ordered[
                bisect.bisect_left(ids, target) % len(ids)].node_id

    # -- the iterative lookup (experiment E5's workhorse) -----------------------

    def owner_of(self, key: str) -> str:
        """Ground truth: the online-agnostic responsible node for ``key``."""
        if not self.nodes:
            raise OverlayError("ring is empty")
        ids, ordered = self._ring()
        return ordered[bisect.bisect_left(ids, chord_id(key))
                       % len(ids)].node_id

    def ring_order(self, key: str) -> List[str]:
        """Every peer's name in ring order, starting at ``key``'s owner."""
        ids, ordered = self._ring()
        if not ordered:
            return []
        start = bisect.bisect_left(ids, chord_id(key)) % len(ids)
        return [node.node_id for node in ordered[start:] + ordered[:start]]

    def lookup(self, start: str, key: str, max_hops: int = 64,
               deadline: Optional[Deadline] = None,
               distrust: Optional[frozenset] = None,
               visited: Optional[Set[str]] = None,
               _single_path: bool = False) -> LookupResult:
        """Iterative Chord lookup from ``start`` for ``key``.

        Each routing step is one accounted RPC; offline peers cost a
        timeout and a fallback probe, mirroring real retry behaviour.

        With a :class:`~repro.faults.ReliableChannel` wired in, each step
        additionally gets retries/backoff, and a peer that stays
        unresponsive *after* retries is treated as dead for the rest of
        the lookup (routing detours around it instead of re-probing the
        same blocked hop until the hop budget runs out).

        With a membership service attached to the fabric, the ``avoid``
        set is pre-seeded with every peer the *start* node's view has
        confirmed dead — the lookup detours before paying for the first
        failed probe, which is the health-aware-routing half of E15.

        Deadline propagation: when the fabric carries an
        :class:`~repro.faults.OverloadConfig` with an op budget (or the
        caller passes ``deadline=``), every hop first checks the time
        already spent against the budget — an exhausted one raises
        :class:`~repro.exceptions.DeadlineExceededError` *before* the
        next RPC is issued — and each hop's channel call sees only the
        remaining budget (``deadline.minus(rtt)``).

        Adversary semantics (only with ``fabric.adversary`` installed):
        answers consumed from a compromised responder may be forged —
        a bare client *trusts* routing responses, so a forged owner
        claim is accepted as final (the vulnerability E19 measures).
        With a :class:`~repro.adversary.config.DefenseConfig` the public
        entry point delegates to :func:`~repro.adversary.defense
        .defended_chord_lookup`, which re-enters here per disjoint path
        (``_single_path=True``); ``distrust`` then excludes earlier
        paths' responders (and quarantined peers) from *route
        selection* — never from being resolved to as the owner — and
        ``visited`` collects this path's responders for the caller's
        disjointness bookkeeping.
        """
        adv = self.fabric.adversary
        if adv is not None and adv.config.defense is not None \
                and not _single_path:
            from repro.adversary.defense import defended_chord_lookup
            return defended_chord_lookup(self, start, key,
                                         max_hops=max_hops,
                                         deadline=deadline)
        defense = adv.config.defense if adv is not None else None
        key_id = chord_id(key)
        current = self.nodes.get(start)
        if current is None or not current.online:
            raise LookupError_(f"start node {start!r} is not online")
        if deadline is None:
            deadline = self.fabric.mint_deadline()
        view = None
        if self.fabric.membership is not None:
            view = self.fabric.membership.view_of(start)
        with self.network.tracer.span("chord.lookup", key=key,
                                      start=start) as span:
            hops = 0
            rtt = 0.0
            failed = 0
            avoid: Optional[Set[str]] = set() \
                if (self.channel is not None or view is not None) else None
            if view is not None:
                avoid.update(view.dead_peers())
            while hops < max_hops:
                if deadline is not None \
                        and deadline.expired(self.network.sim.now, rtt):
                    self.network.metrics.inc("overload.deadline_expired",
                                             kind="chord_lookup")
                    raise DeadlineExceededError(
                        f"lookup for {key!r} ran out of budget after "
                        f"{hops} hops ({rtt:.3f}s spent)")
                hop_deadline = None if deadline is None \
                    else deadline.minus(rtt)
                if visited is not None and current.node_id != start:
                    visited.add(current.node_id)
                answer = None
                if adv is not None and current.node_id != start:
                    answer = adv.chord_answer(current.node_id, key)
                if answer is not None:
                    if answer.drop:
                        raise LookupError_(
                            f"{current.node_id!r} swallowed the lookup "
                            f"for {key!r} (adversarial drop)")
                    claimed_name, claimed_id = \
                        answer.final if answer.final is not None \
                        else answer.next_hop
                    if defense is not None and not adv.check_claim(
                            "chord", claimed_name, claimed_id):
                        adv.flag_cert_liar(current.node_id,
                                           overlay="chord")
                        raise LookupError_(
                            f"{current.node_id!r} presented a provably "
                            f"forged node-id claim for {claimed_name!r}")
                    kind = "chord_final" if answer.final is not None \
                        else "chord_step"
                    ok, t = self.fabric.rpc(current.node_id, claimed_name,
                                            kind=kind, deadline=hop_deadline)
                    rtt += t
                    hops += 1
                    if not ok:
                        failed += 1
                        if avoid is not None:
                            avoid.add(claimed_name)
                        raise LookupError_(
                            f"forged route target {claimed_name!r} for "
                            f"{key!r} is unreachable")
                    if answer.final is not None:
                        # a bare client trusts the final claim as-is
                        span.set_attr("hops", hops)
                        span.set_attr("failed_probes", failed)
                        span.set_attr("owner", claimed_name)
                        return LookupResult(owner=claimed_name, hops=hops,
                                            rtt=rtt, failed_probes=failed,
                                            resolver=current.node_id)
                    current = self.nodes[claimed_name]
                    continue
                successor = current.first_live_successor(self, avoid)
                if successor is None:
                    raise LookupError_(
                        f"{current.node_id!r} has no live successor "
                        "(ring partitioned)")
                final_name: Optional[str] = None
                if defense is None:
                    succ_node = self.nodes[successor]
                    if in_interval(key_id, current.chord_id,
                                   succ_node.chord_id,
                                   inclusive_right=True):
                        final_name = successor
                else:
                    # Redundant successor verification: scan the whole
                    # successor list, so any of the last
                    # ``successor_list_size`` predecessors can name the
                    # owner — a single compromised immediate predecessor
                    # is then not a routing choke point for the
                    # disjoint-path retries.
                    for succ in current.successors:
                        if avoid is not None and succ in avoid:
                            continue
                        snode = self.nodes.get(succ)
                        if snode is None or not snode.online:
                            continue
                        if in_interval(key_id, current.chord_id,
                                       snode.chord_id,
                                       inclusive_right=True):
                            final_name = succ
                            break
                if final_name is not None:
                    successor = final_name
                    if defense is not None \
                            and not adv.check_claim(
                                "chord", successor,
                                adv.certified_id("chord", successor)):
                        # cannot happen for an honest successor; the
                        # check still runs real certificate verification
                        # on every routing response (cached per name)
                        adv.flag_cert_liar(current.node_id,
                                           overlay="chord")
                        raise LookupError_(
                            f"uncertifiable owner claim {successor!r}")
                    ok, t = self.fabric.rpc(current.node_id, successor,
                                            kind="chord_final",
                                            deadline=hop_deadline)
                    rtt += t
                    hops += 1
                    if ok:
                        span.set_attr("hops", hops)
                        span.set_attr("failed_probes", failed)
                        span.set_attr("owner", successor)
                        return LookupResult(owner=successor, hops=hops,
                                            rtt=rtt, failed_probes=failed,
                                            resolver=current.node_id)
                    failed += 1
                    if avoid is not None:
                        avoid.add(successor)
                    continue  # successor died mid-lookup; list advances
                route_avoid = avoid
                if distrust:
                    route_avoid = set(distrust) if avoid is None \
                        else (avoid | distrust)
                next_hop = current.closest_preceding(key_id, self,
                                                     route_avoid)
                if next_hop is None:
                    next_hop = successor
                ok, t = self.fabric.rpc(current.node_id, next_hop,
                                        kind="chord_step",
                                        deadline=hop_deadline)
                rtt += t
                hops += 1
                if ok:
                    current = self.nodes[next_hop]
                else:
                    failed += 1
                    if avoid is not None:
                        avoid.add(next_hop)
            raise LookupError_(
                f"lookup for {key!r} exceeded {max_hops} hops")

    # -- storage with successor-list replication ----------------------------------

    def replica_set(self, key: str) -> List[str]:
        """The ``replication`` nodes responsible for ``key``."""
        owner = self.owner_of(key)
        replicas = [owner]
        node = self.nodes[owner]
        for succ in node.successors:
            if len(replicas) >= self.replication:
                break
            if succ not in replicas:
                replicas.append(succ)
        return replicas

    def put(self, start: str, key: str, value: bytes) -> LookupResult:
        """Route to the owner and store on the replica set."""
        with self.network.tracer.span("chord.put", key=key, start=start):
            result = self.lookup(start, key)
            for replica in self.replica_set(key):
                self.nodes[replica].store[key] = value
                if replica != result.owner:
                    self.fabric.rpc(result.owner, replica,
                                    kind="chord_replicate")
            return result

    def get(self, start: str, key: str) -> Tuple[bytes, LookupResult]:
        """Route to the owner (or a live replica) and fetch.

        With a resilient channel, the read degrades gracefully: if routing
        cannot reach the owner (partition, crash), the replica set is
        probed directly with hedged reads from the querying peer, so any
        reachable holder serves the content.

        Latency note: the replica probing here is sequential *failover*
        (try the next holder only after the previous one fails), not true
        hedging, so its cost is a serial sum; staggered hedging lives in
        :meth:`repro.faults.ReliableChannel.hedged` and the verified path
        of :func:`repro.overlay.replication.fetch_from_holders`.
        """
        with self.network.tracer.span("chord.get", key=key, start=start):
            return self._get_inner(start, key, self.fabric.mint_deadline())

    def _get_inner(self, start: str, key: str,
                   deadline: Optional[Deadline] = None
                   ) -> Tuple[bytes, LookupResult]:
        if self.channel is None:
            result = self.lookup(start, key, deadline=deadline)
            for replica in [result.owner] + self.replica_set(key):
                node = self.nodes.get(replica)
                if node is not None and node.online and key in node.store:
                    if replica != result.owner:
                        ok, _ = self.network.rpc(result.owner, replica,
                                                 kind="chord_replica_read")
                        if not ok:
                            continue
                    return node.store[key], result
            raise StorageError(
                f"key {key!r} unavailable: no live replica holds it")
        spent = 0.0
        try:
            result: Optional[LookupResult] = self.lookup(start, key,
                                                         deadline=deadline)
            spent = result.rtt
        except LookupError_:
            result = None  # routing failed; fall back to direct replica reads
            # (a DeadlineExceededError deliberately propagates instead:
            # an exhausted budget must not trigger the hedged fallback)
        owner = result.owner if result is not None else self.owner_of(key)
        candidates = [owner] + [r for r in self.replica_set(key)
                                if r != owner]
        if self.fabric.membership is not None:
            # Health-aware replica reads: probe the holders the reader
            # believes healthy first; confirmed-dead ones sort last.
            candidates = self.fabric.membership.order_by_health(
                start, candidates)
        probed = 0
        sheds = 0
        for replica in candidates:
            node = self.nodes.get(replica)
            if node is None or key not in node.store:
                continue  # crashed holders lost the key with their state
            if deadline is not None \
                    and deadline.expired(self.network.sim.now, spent):
                self.network.metrics.inc("overload.deadline_expired",
                                         kind="chord_replica_read")
                raise DeadlineExceededError(
                    f"read of {key!r} ran out of budget after "
                    f"{probed} replica probes")
            if probed > 0:
                self.network.metrics.inc("net.hedges")
            probed += 1
            future = self.channel.call_issue(
                start, replica, kind="chord_replica_read",
                deadline=None if deadline is None else deadline.minus(spent))
            ok, rtt = future.value
            spent += rtt
            if ok:
                if result is None:
                    result = LookupResult(owner=replica, hops=0, rtt=rtt,
                                          failed_probes=0)
                return node.store[key], result
            if future.cause == "overloaded":
                sheds += 1
        if sheds:
            raise OverloadedError(
                f"key {key!r} unavailable: {sheds} of {probed} replica "
                "probes were shed by overloaded holders")
        raise StorageError(
            f"key {key!r} unavailable: no reachable replica holds it")

    # -- batched reads (the feed fan-out / cache-warming path) -------------------

    def get_many(self, start: str, keys: Sequence[str]
                 ) -> Dict[str, object]:
        """Batched fetch: one route per owner, one RPC per extra holder.

        Keys hashing to the same owner share a single iterative lookup —
        the route amortizes over the whole group, because successor-list
        replica sets are a function of the owner alone — and each holder
        beyond the routed node is asked for *all* of its keys in one
        ``chord_batch_fetch`` RPC instead of one RPC per key.  Failures
        come back as exception **values** keyed by cid (a
        :class:`StorageError` or the routing :class:`LookupError_`), so
        one unreachable key never fails the batch.  Per-key serving
        semantics match :meth:`get`: the first live holder in
        routed-owner-then-replica-set order wins.
        """
        results: Dict[str, object] = {}
        seen: Set[str] = set()
        groups: Dict[str, List[str]] = {}
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            groups.setdefault(self.owner_of(key), []).append(key)
        with self.network.tracer.span("chord.get_many", start=start,
                                      keys=len(seen),
                                      owners=len(groups)) as span:
            # Owner groups are independent fetch chains (route + holder
            # probes) that a client runs concurrently: each group is a
            # serial sub-span and the groups roll up as max.
            with self.network.tracer.span("chord.get_many.fanout",
                                          parallel=True, owners=len(groups)):
                for owner, group in groups.items():
                    with self.network.tracer.span("chord.get_group",
                                                  owner=owner):
                        self._get_group(start, owner, group, results)
            span.set_attr("served",
                          sum(1 for v in results.values()
                              if not isinstance(v, Exception)))
        return results

    def _get_group(self, start: str, owner: str, group: List[str],
                   results: Dict[str, object]) -> None:
        """Serve one owner-group of keys over a single route.

        Deadline semantics match the batch contract: an exhausted budget
        becomes a :class:`DeadlineExceededError` *value* for the group's
        unserved keys (one starved group never fails the whole feed
        fan-out).
        """
        deadline = self.fabric.mint_deadline()
        routed: Optional[str] = None
        spent = 0.0
        try:
            route_result = self.lookup(start, group[0], deadline=deadline)
            routed = route_result.owner
            spent = route_result.rtt
        except DeadlineExceededError as exc:
            for key in group:
                results[key] = exc
            return
        except LookupError_ as exc:
            if self.channel is None:
                for key in group:
                    results[key] = exc
                return
            # Resilient mode: routing failed, probe the replica set
            # directly (the same graceful degradation as single get).
        anchor = routed if routed is not None else owner
        candidates = [anchor] + [r for r in self.replica_set(group[0])
                                 if r != anchor]
        if self.channel is not None and self.fabric.membership is not None:
            candidates = self.fabric.membership.order_by_health(
                start, candidates)
        pending: Set[str] = set(group)
        expired = None
        for replica in candidates:
            if not pending:
                break
            node = self.nodes.get(replica)
            if node is None or not node.online:
                continue
            served = [k for k in group if k in pending and k in node.store]
            if not served:
                continue
            if deadline is not None \
                    and deadline.expired(self.network.sim.now, spent):
                self.network.metrics.inc("overload.deadline_expired",
                                         kind="chord_batch_fetch")
                expired = DeadlineExceededError(
                    f"batch fetch ran out of budget with "
                    f"{len(pending)} keys unserved")
                break
            if self.channel is not None:
                ok, t = self.channel.call(
                    start, replica, kind="chord_batch_fetch",
                    deadline=None if deadline is None
                    else deadline.minus(spent))
                spent += t
            elif replica != routed:
                ok, t = self.network.rpc(routed, replica,
                                         kind="chord_batch_fetch")
                spent += t
            else:
                ok = True  # the route already landed here; its keys ride free
            if not ok:
                continue
            for key in served:
                results[key] = node.store[key]
                pending.discard(key)
        for key in group:
            if key in pending:
                results[key] = expired if expired is not None \
                    else StorageError(
                        f"key {key!r} unavailable: no reachable replica "
                        "holds it")

    # -- incremental protocol (join / stabilize), used by the tests --------------

    def join(self, name: str, via: str) -> ChordNode:
        """Join a new peer through an existing one (successor via lookup)."""
        node = self.add_node(name)
        result = self.lookup(via, name)
        node.successors = [result.owner]
        node.fingers[0] = result.owner
        return node

    def stabilize_all(self, rounds: int = 1) -> None:
        """Run the periodic stabilization on every node ``rounds`` times."""
        self._stale = True
        for _ in range(rounds):
            for node in list(self.nodes.values()):
                if node.online:
                    self._stabilize(node)
            online = [n for n in self._ring()[1] if n.online]
            online_ids = [n.chord_id for n in online]
            for node in online:
                self._fill_fingers(node, online_ids, online)

    def _stabilize(self, node: ChordNode) -> None:
        successor = node.first_live_successor(self)
        if successor is None:
            return
        succ_node = self.nodes[successor]
        pred = succ_node.predecessor
        if pred is not None and self.network.is_online(pred):
            pred_node = self.nodes[pred]
            if in_interval(pred_node.chord_id, node.chord_id,
                           succ_node.chord_id):
                successor = pred
                succ_node = pred_node
        # notify
        if succ_node.predecessor is None or not self.network.is_online(
                succ_node.predecessor) or in_interval(
                    node.chord_id,
                    self.nodes[succ_node.predecessor].chord_id
                    if succ_node.predecessor in self.nodes else 0,
                    succ_node.chord_id):
            succ_node.predecessor = node.node_id
        # refresh successor list from the successor's list
        merged = [successor] + [
            s for s in succ_node.successors if s != node.node_id]
        node.successors = merged[:self.successor_list_size]
        self.fabric.rpc(node.node_id, successor, kind="chord_stabilize")
