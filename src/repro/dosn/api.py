"""The high-level DOSN facade: one object, every architecture.

:class:`DosnNetwork` wires users, a storage architecture, and encryption
policy together so examples and experiments read like the scenarios in the
paper::

    net = DosnNetwork(architecture="dht", seed=7)
    alice, bob = net.add_user("alice"), net.add_user("bob")
    net.befriend("alice", "bob")
    cid = net.post("alice", "hello distributed world!")
    feed = net.feed("bob")             # fetch + decrypt + verify
    report = net.exposure_report()     # who could observe what

Architectures (the Section II taxonomy): ``central`` (baseline provider),
``dht`` (Chord + replication), ``federation`` (pods), ``local``
(owner-only storage).

Configuration beyond ``architecture``/``seed`` lives in the keyword-only
:class:`DosnConfig`::

    net = DosnNetwork(config=DosnConfig(architecture="dht", seed=7,
                                        replication=3, tracing=True))

(The loose ``encrypt_content=``/``level=``/``replication=``/
``federation_pods=`` constructor kwargs, deprecated for one release, are
gone — ``config=DosnConfig(...)`` is the only spelling.)  With
``tracing=True`` every ``post``/``read``/``feed``/``befriend`` opens a
span on the fabric tracer, nesting the overlay, storage and crypto spans
beneath it — experiment E13 builds its cost-breakdown tables from exactly
this tree.

Reads return a typed :class:`~repro.dosn.results.ReadResult` carrying
the verified post plus its provenance (``cache``/``quorum``/``bare``,
degraded or not).  ``DosnConfig(cache=CacheConfig(...))`` turns on the
hot-path read machinery of :mod:`repro.cache`: per-reader verified-
content caching invalidated by the author's hash-chain head, batched
:meth:`StorageBackend.get_many` feed fan-out, and social prefetching —
all strictly off by default.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.adversary.config import AdversaryConfig
from repro.cache import CacheConfig, SocialPrefetcher, VerifiedContentCache
from repro.dosn.feed import FeedReport, assemble_feed
from repro.dosn.provider import CentralProvider, ExposureReport
from repro.dosn.results import ReadResult
from repro.dosn.storage import (CentralBackend, DHTBackend,
                                FederationBackend, LocalBackend,
                                StorageBackend)
from repro.dosn.user import DosnUser
from repro.dosn.identity import KeyRegistry
from repro.exceptions import IntegrityError, OverlayError
from repro.fabric import Fabric
from repro.faults.overload import OverloadConfig
from repro.membership import MembershipConfig, SwimMembership
from repro.overlay.chord import ChordRing
from repro.overlay.federation import FederatedNetwork
from repro.stack import (AclLayer, ContentItem, IndexLayer, IntegrityLayer,
                         LayerSpec, PlacementLayer, ProtectionStack,
                         SystemSpec, register_system)
from repro.storage2 import (AntiEntropyDaemon, ReplicatedStore,
                            ReplicationConfig)

ARCHITECTURES = ("central", "dht", "federation", "local")

__all__ = ["ARCHITECTURES", "DOSN_SPEC", "DosnConfig", "DosnNetwork"]

#: The reference network's declared pipeline (Table I rows it runs).
DOSN_SPEC = register_system(SystemSpec(
    name="repro.dosn",
    citation="this reproduction's reference model",
    overlay="pluggable (central / Chord DHT / federation / local)",
    layers=(
        LayerSpec("integrity", "Schnorr signature + hash-chained timeline",
                  table1_rows=("Integrity of data owner and data content",
                               "Historical integrity"),
                  detail="per-post signature; cid appended to the "
                         "author's hash chain"),
        LayerSpec("acl", "friend-group symmetric encryption",
                  table1_rows=("Symmetric key encryption",),
                  detail="one StreamCipher group key per author, "
                         "distributed out of band"),
        LayerSpec("placement", "pluggable storage backend",
                  detail="central provider, replicated Chord DHT, "
                         "federation pods, or owner-local"),
    ),
    notes="the configurable baseline the experiments sweep"))

#: The index layer appended when ``DosnConfig.index_posts`` is enabled.
_INDEX_LAYER_SPEC = LayerSpec(
    "index", "blinded index",
    table1_rows=("Content privacy",),
    detail="HMAC-blinded keyword postings (Section V)")


@dataclass(frozen=True)
class DosnConfig:
    """Keyword-only configuration surface for :class:`DosnNetwork`.

    Replaces the growing positional kwarg list; being frozen, one config
    can parameterize a whole experiment sweep via
    :func:`dataclasses.replace`.
    """

    #: one of :data:`ARCHITECTURES`
    architecture: str = "dht"
    #: master seed — every random stream in the network derives from it
    seed: int = 0
    #: encrypt posts for the author's friend group before storage
    encrypt_content: bool = True
    #: cryptographic parameter level (see :mod:`repro.crypto.params`)
    level: str = "TOY"
    #: replica-set size for the DHT architecture.  An ``int`` keeps the
    #: legacy first-responder semantics; a
    #: :class:`repro.storage2.ReplicationConfig` opts into the verified
    #: quorum store (W-of-N writes, R-of-N verified reads, and — when its
    #: ``repair_interval`` is set — the anti-entropy daemon)
    replication: "int | ReplicationConfig" = 2
    #: pod count for the federation architecture
    federation_pods: int = 4
    #: collect virtual-time spans on the fabric tracer
    tracing: bool = False
    #: also record segregated wall-clock span durations (implies tracing)
    wall_clock: bool = False
    #: route DHT storage RPCs through a :class:`ReliableChannel`
    resilient: bool = False
    #: index posts into a blinded :class:`~repro.search.index.SearchIndex`
    index_posts: bool = False
    #: run a SWIM-style failure detector (:mod:`repro.membership`) and use
    #: it — instead of the churn oracle — as the liveness source for
    #: routing, the resilient channel, and the anti-entropy daemon.
    #: DHT architecture only; ``None`` keeps the legacy oracle paths.
    membership: Optional[MembershipConfig] = None
    #: hot-path read caching (:mod:`repro.cache`): per-reader verified-
    #: content LRU + batched feed fan-out + social prefetch.  ``None``
    #: (the default) keeps every read cold and fetches each feed cid on
    #: its own — no extra RNG draw or message.
    cache: Optional[CacheConfig] = None
    #: overload protection (:mod:`repro.faults.overload`): per-peer
    #: service queues with load shedding, per-operation deadlines through
    #: lookups / quorum reads / feed fan-out, a shared retry budget, and
    #: adaptive attempt timeouts.  ``None`` (the default) keeps the
    #: fair-weather fabric — no service state, no new RNG draws, every
    #: committed table byte-identical.
    overload: Optional[OverloadConfig] = None
    #: routing-layer adversary (:mod:`repro.adversary`): a hash-selected
    #: fraction of overlay peers misroute / eclipse / drop lookups, and
    #: an :attr:`~repro.adversary.AdversaryConfig.defense` switches the
    #: ring to certified node IDs + disjoint-path voting + quarantine.
    #: ``None`` (the default) keeps lookups trusting and every committed
    #: table byte-identical — and even an installed adversary draws no
    #: RNG (all its decisions are hash-derived).
    adversary: Optional[AdversaryConfig] = None

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise OverlayError(
                f"unknown architecture {self.architecture!r}; "
                f"pick from {ARCHITECTURES}")
        if self.membership is not None and self.architecture != "dht":
            raise OverlayError(
                "membership requires the dht architecture (the detector "
                "rides on overlay peers)")
        if self.adversary is not None and self.architecture != "dht":
            raise OverlayError(
                "adversary requires the dht architecture (the attacks "
                "target overlay routing)")


class DosnNetwork:
    """A complete simulated (D)OSN."""

    def __init__(self, architecture: Optional[str] = None,
                 seed: Optional[int] = None, *,
                 config: Optional[DosnConfig] = None,
                 fabric: Optional[Fabric] = None) -> None:
        if config is None:
            config = DosnConfig(
                architecture=(architecture if architecture is not None
                              else "dht"),
                seed=seed if seed is not None else 0)
        else:
            overrides = {}
            if architecture is not None:
                overrides["architecture"] = architecture
            if seed is not None:
                overrides["seed"] = seed
            if overrides:
                config = replace(config, **overrides)
        self.config = config
        self.architecture = config.architecture
        self.level = config.level
        self.encrypt_content = config.encrypt_content
        if fabric is None:
            fabric = Fabric.create(
                seed=config.seed,
                tracing=config.tracing or config.wall_clock,
                wall_clock=config.wall_clock,
                resilient=config.resilient,
                overload=config.overload,
                adversary=config.adversary)
        self.fabric = fabric
        self.sim = fabric.sim
        self.network = fabric.network
        self.tracer = fabric.tracer
        self.metrics = fabric.metrics
        self.registry = KeyRegistry()
        self.users: Dict[str, DosnUser] = {}
        self.graph = nx.Graph()
        self.rng = _random.Random(config.seed)
        self.provider: Optional[CentralProvider] = None
        self.repair_daemon: Optional[AntiEntropyDaemon] = None
        self.membership: Optional[SwimMembership] = None
        if config.architecture == "central":
            self.provider = CentralProvider()
            self.storage: StorageBackend = CentralBackend(self.provider)
        elif config.architecture == "dht":
            if config.membership is not None:
                # Built before the store/daemon so both auto-discover it
                # from the fabric as their liveness source.
                self.membership = SwimMembership(fabric, config.membership)
            rep = config.replication
            if isinstance(rep, ReplicationConfig):
                self.ring = ChordRing(fabric, replication=rep.n)
                quorum = ReplicatedStore(
                    self.ring, rep, registry=self.registry,
                    signer_of=lambda name: self.users[name].identity.signer)
                self.storage = DHTBackend(self.ring, quorum=quorum)
                if rep.repair_interval is not None:
                    self.repair_daemon = AntiEntropyDaemon(
                        quorum, rep.repair_interval)
                    self.repair_daemon.start()
            else:
                self.ring = ChordRing(fabric, replication=rep)
                self.storage = DHTBackend(self.ring)
        elif config.architecture == "federation":
            self.federation = FederatedNetwork(
                self.network,
                [f"pod{i}" for i in range(config.federation_pods)])
            self.storage = FederationBackend(self.federation)
        else:
            self.storage = LocalBackend()
        #: cid -> (author, encrypted?) for exposure accounting
        self._catalog: Dict[str, Tuple[str, bool]] = {}
        #: cid -> (text, tags, sequence): enough to reseal on :meth:`repost`
        self._posts: Dict[str, Tuple[str, Tuple[str, ...], int]] = {}
        self.index = None
        self.stack = self._build_stack(config)
        #: the per-reader verified-content cache (``None`` when cold)
        self.cache: Optional[VerifiedContentCache] = None
        #: warms caches along social edges (``None`` unless enabled)
        self.prefetcher: Optional[SocialPrefetcher] = None
        if config.cache is not None and config.cache.caching:
            self.cache = VerifiedContentCache(
                config.cache.capacity_per_reader, metrics=self.metrics)
            if config.cache.prefetch:
                self.prefetcher = SocialPrefetcher(
                    self.cache, config.cache.prefetch_depth,
                    view_of=self._view_of, fetch_many=self._fetch_many,
                    open_post=self._open_for, tracer=self.tracer)

    def _build_stack(self, config: DosnConfig) -> ProtectionStack:
        """Assemble the network's :class:`ProtectionStack`.

        Layer hooks delegate to :class:`DosnUser`'s split publish/read
        halves and to the selected storage backend.  The placement layer
        carries the legacy ``storage.put``/``storage.get`` span names so
        committed trace baselines (E13) stay byte-identical; metrics stay
        off for the same reason — the fabric tracer already prices every
        phase.
        """
        spec = DOSN_SPEC
        layers = [
            IntegrityLayer(post=self._layer_seal, read=self._layer_verify,
                           spec=spec.layers[0]),
            AclLayer(post=self._layer_protect, read=self._layer_unprotect,
                     spec=spec.layers[1]),
            PlacementLayer(post=self._layer_store, read=self._layer_fetch,
                           spec=spec.layers[2],
                           span_post="storage.put", span_read="storage.get",
                           span_attrs={"backend": config.architecture}),
        ]
        if config.index_posts:
            from repro.search.index import SearchIndex
            self.index = SearchIndex(
                blinding_secret=f"dosn/index/{config.seed}".encode())
            layers.append(IndexLayer.from_index(
                self.index, lambda item: str(item.meta.get("text", "")),
                spec=_INDEX_LAYER_SPEC))
            spec = SystemSpec(
                name=spec.name, citation=spec.citation, overlay=spec.overlay,
                layers=spec.layers + (_INDEX_LAYER_SPEC,), notes=spec.notes)
        return ProtectionStack(layers, spec=spec, tracer=self.tracer)

    # -- stack layer hooks ---------------------------------------------------------

    def _layer_seal(self, item: ContentItem) -> None:
        user = self.users[item.author]
        item.cid, item.payload = user.seal_post(
            item.meta["text"], item.meta["tags"])

    def _layer_protect(self, item: ContentItem) -> None:
        item.payload = self.users[item.author].protect_document(item.payload)

    def _layer_store(self, item: ContentItem) -> None:
        user = self.users[item.author]
        self.storage.put(item.author, item.cid, item.payload,
                         recipients=sorted(user.friends))

    def _layer_fetch(self, item: ContentItem) -> None:
        # fetch_blob issues exactly the RPCs .get() would (legacy tables
        # depend on that) but keeps the provenance for the ReadResult.
        fetched = self.storage.fetch_blob(item.reader, item.cid)
        item.payload = fetched.blob
        item.meta["fetched"] = fetched

    def _layer_unprotect(self, item: ContentItem) -> None:
        item.payload = self.users[item.reader].unlock(item.author,
                                                      item.payload)

    def _layer_verify(self, item: ContentItem) -> None:
        item.result = self.users[item.reader].verify_document(
            item.author, item.payload, expected_cid=item.cid)

    # -- cache plumbing (only exercised with DosnConfig(cache=...)) ----------------

    def _view_of(self, reader: str, author: str):
        """Sync and return ``reader``'s chain-verified view of ``author``.

        ``None`` when the author is unknown, unsynced, or their published
        chain fails to extend the verified view — the cache refuses to
        serve without this evidence.
        """
        user = self.users[reader]
        friend = self.users.get(author)
        if friend is not None:
            try:
                user.sync_timeline(friend)
            except IntegrityError:
                return None
        return user.views.get(author)

    def _fetch_many(self, reader: str, cids: List[str]) -> Dict[str, object]:
        """The batched storage read, under one span (the E16 hot path)."""
        with self.tracer.span("storage.get_many", reader=reader,
                              requested=len(cids)):
            return self.storage.get_many(reader, cids)

    def _open_for(self, reader: str, author: str, blob: bytes, cid: str):
        """Decrypt + verify one fetched blob through the stack's read path."""
        item = ContentItem(author=author, reader=reader, cid=cid,
                           payload=blob)
        self.stack.read(item, only=("acl", "integrity"))
        return item.result

    # -- population -----------------------------------------------------------

    def add_user(self, name: str) -> DosnUser:
        """Create a user and enroll them in the architecture."""
        user = DosnUser(name, self.registry, level=self.level,
                        rng=_random.Random(f"{name}/{self.rng.random()}"),
                        encrypt_content=self.encrypt_content,
                        tracer=self.tracer)
        self.users[name] = user
        self.graph.add_node(name)
        if self.architecture == "dht":
            self.ring.add_node(name)
            if self.membership is not None:
                self.membership.register(name)
        elif self.architecture == "federation":
            self.federation.register_user(name)
        return user

    def add_users(self, names: Sequence[str]) -> List[DosnUser]:
        """Bulk user creation."""
        return [self.add_user(name) for name in names]

    def befriend(self, a: str, b: str) -> None:
        """Create a mutual friendship (keys exchanged out-of-band).

        With a prefetcher enabled each side's cache is warmed with the
        new friend's newest posts right away — the social graph is the
        access predictor, and a fresh edge is the strongest signal.
        """
        with self.tracer.span("dosn.befriend", a=a, b=b):
            self.users[a].befriend(self.users[b])
            self.graph.add_edge(a, b)
            if self.provider is not None:
                self.provider.record_edge(a, b)
        if self.prefetcher is not None:
            self._ensure_routing()
            self.prefetcher.warm(a, (b,))
            self.prefetcher.warm(b, (a,))

    def apply_social_graph(self, graph: nx.Graph) -> None:
        """Befriend along every edge of a (workload-generated) graph."""
        for a, b in graph.edges:
            self.befriend(str(a), str(b))

    def _ensure_routing(self) -> None:
        if self.architecture == "dht":
            self.ring.build()
            if self.membership is not None \
                    and len(self.membership.views) >= 2:
                self.membership.start()

    # -- the social operations ----------------------------------------------------

    def post(self, author: str, text: str,
             tags: Sequence[str] = ()) -> str:
        """Author a post through the stack; returns its content id."""
        self._ensure_routing()
        with self.tracer.span("dosn.post", author=author):
            item = ContentItem(author=author,
                               meta={"text": text, "tags": tags})
            self.stack.post(item)
            self._catalog[item.cid] = (author, self.encrypt_content)
            self._posts[item.cid] = (text, tuple(tags),
                                     self.users[author].posts_published - 1)
            return item.cid

    def repost(self, author: str, cid: str) -> str:
        """Overwrite a published post in place: same cid, fresh bytes.

        Content addressing pins the cid, but the randomized signature and
        fresh cipher nonce make the stored blob differ, and the author's
        hash chain re-lists the cid — the signed announcement that makes
        every reader's cached copy provably stale
        (:meth:`repro.cache.VerifiedContentCache.lookup` evicts on it).
        On quorum backends the overwrite seals the next version, so
        Byzantine holders gain real stale history to replay.
        """
        record = self._posts.get(cid)
        if record is None:
            raise OverlayError(
                f"unknown content id {cid!r}: only posts published "
                "through this network can be reposted")
        owner, _ = self._catalog[cid]
        if owner != author:
            raise OverlayError(
                f"{author!r} cannot repost {owner!r}'s content")
        text, tags, sequence = record
        self._ensure_routing()
        with self.tracer.span("dosn.repost", author=author):
            user = self.users[author]
            new_cid, document = user.reseal_post(text, tags, sequence)
            assert new_cid == cid  # the address is a function of the content
            blob = user.protect_document(document)
            self.storage.put(author, cid, blob,
                             recipients=sorted(user.friends))
            return cid

    def read(self, reader: str, author: str, cid: str) -> ReadResult:
        """Fetch, decrypt and verify one post as ``reader``.

        Returns a typed :class:`~repro.dosn.results.ReadResult` — the
        verified post under ``.post`` plus provenance (``source`` in
        ``cache``/``quorum``/``bare``, ``degraded``).  With caching
        enabled, a hit is served only after re-checking the entry against
        the author's current chain-verified head; misses run the full
        stack and seed the cache.
        """
        self._ensure_routing()
        with self.tracer.span("dosn.read", reader=reader, author=author):
            view = None
            if self.cache is not None:
                view = self._view_of(reader, author)
                entry = self.cache.lookup(reader, author, cid, view)
                if entry is not None:
                    return ReadResult(entry.post, verified=True,
                                      degraded=False, source="cache")
            item = ContentItem(author=author, reader=reader, cid=cid)
            self.stack.read(item)
            fetched = item.meta.get("fetched")
            result = ReadResult(item.result, verified=True,
                                degraded=getattr(fetched, "degraded", False),
                                source=getattr(fetched, "source", "bare"))
            if self.cache is not None and view is not None \
                    and not result.degraded:
                self.cache.insert(reader, author, cid, item.result, view,
                                  version=getattr(fetched, "version", None))
            return result

    def prefetch(self, reader: str) -> int:
        """Warm ``reader``'s cache with their friends' newest posts.

        Returns how many posts were fetched, verified and cached; always
        0 when the network runs without a prefetcher
        (``DosnConfig.cache`` unset, capacity 0, or ``prefetch=False``).
        """
        if self.prefetcher is None:
            return 0
        self._ensure_routing()
        return self.prefetcher.warm(reader, self.users[reader].friends)

    def feed(self, reader: str,
             limit_per_friend: Optional[int] = None) -> FeedReport:
        """Assemble the reader's verified news feed.

        Every friend's timeline is synced first; the fetch pass then
        runs only the stack's placement layer and each fetched blob is
        opened through the ACL + integrity layers.  With
        ``DosnConfig.cache`` set the prefetcher warms the reader's cache,
        chain-validated hits skip fetch + decrypt + verify, and the
        remaining cids ride one :meth:`StorageBackend.get_many` call (one
        route / RPC per holder instead of one per post); without it each
        cid is fetched on its own.
        """
        self._ensure_routing()

        def fetch(r: str, cid: str):
            item = ContentItem(author="", reader=r, cid=cid)
            self.stack.read(item, only=("placement",))
            return item.meta.get("fetched", item.payload)

        def open_post(author: str, blob: bytes, cid: str):
            item = ContentItem(author=author, reader=reader, cid=cid,
                               payload=blob)
            self.stack.read(item, only=("acl", "integrity"))
            return item.result

        fetch_many = (self._fetch_many if self.config.cache is not None
                      else None)
        with self.tracer.span("dosn.feed", reader=reader):
            if self.prefetcher is not None:
                self.prefetcher.warm(reader, self.users[reader].friends)
            return assemble_feed(
                self.users[reader], self.users, fetch=fetch,
                limit_per_friend=limit_per_friend, open_post=open_post,
                fetch_many=fetch_many, cache=self.cache)

    def search(self, query: str) -> List[str]:
        """Content ids matching ``query`` via the stack's index layer.

        Requires :attr:`DosnConfig.index_posts`; the index stores
        HMAC-blinded tags, so its host never sees the vocabulary.
        """
        if self.index is None:
            raise OverlayError(
                "search requires DosnConfig(index_posts=True)")
        return self.index.search(query)

    # -- exposure accounting (experiment E8) -----------------------------------------

    def exposure_report(self) -> List[ExposureReport]:
        """Per-observer exposure: content/metadata/graph view fractions.

        Observers are providers (central), pods (federation) or storing
        peers (dht/local).  A stored blob counts toward ``content_view``
        only if it is readable by that observer: unencrypted, or the
        observer is the author/a friend holding the group key.
        """
        total_content = len(self._catalog)
        total_edges = self.graph.number_of_edges()
        reports: List[ExposureReport] = []
        for observer, stored in self.storage.observer_views().items():
            readable = 0
            graph_view = 0.0
            for cid in stored:
                author, encrypted = self._catalog.get(cid, (None, True))
                if author is None:
                    continue
                if not encrypted:
                    readable += 1
                elif observer == author or (
                        observer in self.users
                        and author in self.users[observer].friend_keys):
                    readable += 1
            if self.provider is not None and observer == self.provider.name:
                graph_view = (len(self.provider.observed_edges)
                              / total_edges if total_edges else 0.0)
            elif self.architecture == "federation":
                server = self.federation.servers.get(observer)
                if server is not None and total_edges:
                    seen = {tuple(sorted(edge))
                            for edge in server.observed_edges}
                    graph_view = len(seen) / total_edges
            elif observer in self.users and total_edges:
                # A peer knows its own friendships.
                graph_view = self.graph.degree(observer) / total_edges
            reports.append(ExposureReport(
                observer=observer,
                content_view=(readable / total_content
                              if total_content else 0.0),
                metadata_view=(len(stored & set(self._catalog))
                               / total_content if total_content else 0.0),
                graph_view=graph_view))
        return reports

    def worst_observer(self) -> ExposureReport:
        """The single most-exposed observer (the paper's headline metric)."""
        reports = self.exposure_report()
        if not reports:
            return ExposureReport(observer="nobody", content_view=0.0,
                                  metadata_view=0.0, graph_view=0.0)
        return max(reports,
                   key=lambda r: (r.content_view, r.metadata_view,
                                  r.graph_view))
