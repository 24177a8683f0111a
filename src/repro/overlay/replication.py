"""Replica placement and availability measurement.

Sections I-II of the paper: "replication and caching are proven techniques
to ensure availability" — and the paper's core security observation: "The
replica nodes are indeed another kind of service provider in a small scale
and with a local view."  This module provides both halves:

* placement policies (random / friends / uptime-aware, the latter being
  Supernova's "track users' up-time to find the best places");
* :func:`measure_availability` — the fraction of probe times at which at
  least one replica (or the owner) is online under a churn model
  (experiment E6's y-axis);
* :class:`ReplicaExposure` — what each *replica holder* gets to observe,
  quantifying the "many small providers" claim for experiment E8.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.exceptions import OverlayError, ReplicaIntegrityError


@dataclass
class Placement:
    """A replica assignment: owner plus chosen replica holders."""

    owner: str
    replicas: List[str]

    @property
    def holders(self) -> List[str]:
        """Owner + replicas (everyone who can serve the content)."""
        return [self.owner] + self.replicas


def place_random(owner: str, peers: Sequence[str], count: int,
                 rng: _random.Random) -> Placement:
    """Uniformly random replica holders (DHT-successor-like placement)."""
    candidates = [p for p in peers if p != owner]
    if count > len(candidates):
        raise OverlayError(
            f"cannot place {count} replicas among {len(candidates)} peers")
    return Placement(owner=owner, replicas=rng.sample(candidates, count))


def place_friends(owner: str, graph: nx.Graph, count: int,
                  rng: _random.Random) -> Placement:
    """Replicas on social neighbours (friends-first; friends-of-friends
    fill the remainder when the friend list is short)."""
    friends = [str(n) for n in graph.neighbors(owner)]
    rng.shuffle(friends)
    chosen = friends[:count]
    if len(chosen) < count:
        second_ring: Set[str] = set()
        for friend in friends:
            second_ring.update(str(n) for n in graph.neighbors(friend))
        second_ring.discard(owner)
        second_ring.difference_update(chosen)
        extra = sorted(second_ring)
        rng.shuffle(extra)
        chosen.extend(extra[:count - len(chosen)])
    if len(chosen) < count:
        raise OverlayError(
            f"{owner!r} has too few (friends-of-)friends for {count} replicas")
    return Placement(owner=owner, replicas=chosen)


def place_by_uptime(owner: str, peers: Sequence[str], count: int,
                    uptime: Callable[[str], float]) -> Placement:
    """Replicas on the highest-uptime peers (Supernova's tracked placement)."""
    candidates = sorted((p for p in peers if p != owner),
                        key=uptime, reverse=True)
    if count > len(candidates):
        raise OverlayError("not enough peers for the requested replication")
    return Placement(owner=owner, replicas=candidates[:count])


def fetch_from_holders(channel, reader: str, placement: Placement,
                       kind: str = "replica_fetch",
                       blob_of: Optional[Callable[[str],
                                                  Optional[bytes]]] = None,
                       verify: Optional[Callable[[str, bytes],
                                                 bool]] = None
                       ) -> Tuple[Optional[str], float]:
    """Hedged fetch against a placement's holders via a ReliableChannel.

    Holders are probed owner first, then replicas; returns
    ``(holder, elapsed)`` with ``holder=None`` when every holder is
    unreachable.  This is the availability claim made operational:
    replication only helps if the *fetch path* fails over — E12 drives
    storage reads through this instead of assuming any online replica is
    reachable.

    Replica holders are "another kind of service provider" (the paper's
    phrase), so a reachable holder is not necessarily an *honest* one.
    Pass ``blob_of`` (holder -> the bytes it would serve, ``None`` if it
    holds nothing) and ``verify`` (holder, blob -> bool, e.g. an envelope
    or hash-chain check) and each response is verified before it wins:
    holders serving invalid bytes are skipped, and when at least one
    holder answered but *no* response verified the fetch raises
    :class:`~repro.exceptions.ReplicaIntegrityError` instead of handing
    back tampered content.  Without ``blob_of`` the legacy first-responder
    hedge is used unchanged.

    When the channel carries a membership service, holders are reordered
    by the reader's health scores before probing (owner-first otherwise):
    the holders most likely to answer are paid for first, confirmed-dead
    ones last.

    Latency model: the verified probes are staggered hedges (one launch
    per ``channel.hedge_delay``; launching stops once an earlier
    *verified* response has completed) and ``elapsed`` is the winner's
    completion offset.  A branch only wins when its RPC landed and its
    bytes verified — reachable-but-lying holders cannot shorten the
    critical path, they can only force the next hedge to launch.
    """
    holders = placement.holders
    membership = getattr(channel, "membership", None)
    if membership is not None:
        holders = membership.order_by_health(reader, holders)
    if blob_of is None:
        ok, winner, elapsed = channel.hedged(reader, holders, kind=kind)
        return (winner if ok else None), elapsed
    metrics = channel.network.metrics
    launched = []  # (launch offset, holder, future, satisfied)
    served = 0
    for holder in holders:
        blob = blob_of(holder)
        if blob is None:
            continue  # holds nothing — not worth a probe
        launch_at = len(launched) * channel.hedge_delay
        first_win = min((offset + future.latency
                         for offset, _h, future, satisfied in launched
                         if satisfied), default=None)
        if first_win is not None and first_win <= launch_at:
            break  # a verified response beat this hedge's launch time
        if launched:
            metrics.inc("net.hedges")
        future = channel.call_issue(reader, holder, kind=kind)
        if future.ok:
            served += 1
        satisfied = bool(future.ok
                         and (verify is None or verify(holder, blob)))
        launched.append((launch_at, holder, future, satisfied))
    wins = sorted((offset + future.latency, future.seq, holder, future)
                  for offset, holder, future, satisfied in launched
                  if satisfied)
    if wins:
        elapsed, _seq, winner, winning = wins[0]
        for _offset, _holder, future, _satisfied in launched:
            if future is not winning:
                future.cancel()
        return winner, elapsed
    if served > 0:
        raise ReplicaIntegrityError(
            f"{served} holder(s) answered {reader!r} but no response "
            "passed verification")
    elapsed = max((offset + future.latency
                   for offset, _h, future, _s in launched), default=0.0)
    return None, elapsed


def measure_availability(placement: Placement, churn_model,
                         probe_times: Sequence[float]) -> float:
    """Fraction of probes at which some holder is online."""
    if not probe_times:
        raise OverlayError("need at least one probe time")
    hits = 0
    for t in probe_times:
        if any(churn_model.online_at(holder, t)
               for holder in placement.holders):
            hits += 1
    return hits / len(probe_times)


def analytic_availability(placement: Placement, churn_model) -> float:
    """Independence approximation: ``1 - prod(1 - uptime_i)``.

    Useful as the sanity line in experiment E6: measured availability under
    *independent* churn should track this; correlated (diurnal, same
    timezone) churn falls below it — which is the experiment's punchline
    about friend replication.
    """
    miss = 1.0
    for holder in placement.holders:
        miss *= 1.0 - churn_model.uptime_fraction(holder)
    return 1.0 - miss


@dataclass
class ReplicaExposure:
    """Accounting of what replica holders observe (the small providers).

    Every ``record`` call notes that each holder of a placement stores one
    content object of the owner — in the clear unless ``encrypted``.  The
    summary reports, per holder, how many distinct users' readable content
    it sees: the paper's "small scale, local view" made measurable.
    """

    #: holder -> set of owners whose *readable* content it stores
    readable_owners: Dict[str, Set[str]] = field(default_factory=dict)
    #: holder -> number of stored objects (readable or not)
    stored_objects: Dict[str, int] = field(default_factory=dict)

    def record(self, placement: Placement, encrypted: bool) -> None:
        """Account one stored object across its replica holders."""
        for holder in placement.replicas:
            self.stored_objects[holder] = \
                self.stored_objects.get(holder, 0) + 1
            if not encrypted:
                self.readable_owners.setdefault(holder, set()).add(
                    placement.owner)

    def max_readable_view(self, total_users: int) -> float:
        """Worst holder's fraction of users whose data it can read."""
        if not self.readable_owners or total_users == 0:
            return 0.0
        return max(len(owners) for owners in
                   self.readable_owners.values()) / total_users

    def mean_readable_view(self, total_users: int) -> float:
        """Average holder's readable-view fraction."""
        if not self.readable_owners or total_users == 0:
            return 0.0
        views = [len(owners) / total_users
                 for owners in self.readable_owners.values()]
        return sum(views) / len(views)
