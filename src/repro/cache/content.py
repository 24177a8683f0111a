"""The per-reader verified-content cache, invalidated by chain heads.

Socially-aware caching is what makes P2P OSN feeds viable at scale
(Nasir et al.; LibreSocial): a reader's feed re-fetches mostly-unchanged
friend timelines, so the decrypt + verify + fetch work is redundant for
every post the reader already verified.  This cache keeps those verified
posts per reader — but **never** serves a byte without re-checking it
against the author's hash-chain head first:

* a cache entry records the author's verified chain position (head hash
  and entry count) at insert time;
* a hit is only served after comparing that position against the
  reader's *current* chain-verified view of the author
  (:class:`~repro.integrity.hashchain.TimelineView`);
* if the chain advanced, the new entries are scanned — an author
  re-listing the cached cid means the stored object was overwritten
  (re-sealed / re-encrypted), so the stale copy is **evicted** and the
  read falls through to the verified fetch path;
* if the chain advanced without touching the cid, the entry is re-pinned
  to the new head and served.

The chain view itself is chain-and-signature verified on acceptance
(:meth:`TimelineView.accept`), so a hit's freshness evidence carries the
author's signature — a Byzantine holder cannot forge it, which is what
lets E16 claim *zero unverified bytes served from cache*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.lru import LRUMap
from repro.obs.metrics import MetricsRegistry

__all__ = ["CacheEntry", "VerifiedContentCache"]


@dataclass
class CacheEntry:
    """One cached verified post plus its freshness evidence."""

    author: str
    #: the verified post object (a :class:`repro.dosn.user.VerifiedPost`)
    post: object
    #: author's chain head hash when this entry was (re)validated
    head: bytes
    #: how many chain entries the reader had verified at that point
    chain_len: int
    #: storage version that produced the post (quorum backends), if known
    version: Optional[int] = None


def _counter_view(name: str) -> property:
    """A read-only attribute over counter ``cache.<name>``."""
    return property(
        lambda self: self.metrics.get_counter_value(f"cache.{name}"))


class VerifiedContentCache:
    """Per-reader LRU of verified posts, keyed by cid.

    The cache holds no cryptographic authority of its own: validation is
    delegated to the chain view the caller passes into :meth:`lookup` /
    :meth:`insert`, which must be the reader's *verified* replica of the
    author's timeline (or the author's own timeline for self-reads).
    Counters are written once, into :attr:`metrics` (the fabric's
    registry, or a private one when none is given): ``cache.hits`` /
    ``cache.misses`` / ``cache.invalidations`` / ``cache.evictions`` /
    ``cache.insertions``; the same-named attributes read them back.
    """

    def __init__(self, capacity_per_reader: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.capacity = capacity_per_reader
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._readers: Dict[str, LRUMap] = {}

    hits = _counter_view("hits")
    misses = _counter_view("misses")
    invalidations = _counter_view("invalidations")
    insertions = _counter_view("insertions")

    def _lru(self, reader: str) -> LRUMap:
        lru = self._readers.get(reader)
        if lru is None:
            lru = LRUMap(self.capacity)
            self._readers[reader] = lru
        return lru

    @property
    def evictions(self) -> int:
        """Entries pushed out by capacity pressure, across all readers."""
        return sum(lru.evictions for lru in self._readers.values())

    def contains(self, reader: str, cid: str) -> bool:
        """Whether an entry exists (no validation, no counters)."""
        lru = self._readers.get(reader)
        return lru is not None and cid in lru

    def size(self, reader: str) -> int:
        """How many entries a reader currently holds."""
        lru = self._readers.get(reader)
        return len(lru) if lru is not None else 0

    # -- the hot path ---------------------------------------------------------

    def lookup(self, reader: str, author: str, cid: str,
               view) -> Optional[CacheEntry]:
        """A validated hit for ``cid``, or ``None`` (miss / invalidated).

        ``view`` is the reader's current chain-verified view of the
        author (anything exposing ``head_hash`` and ``entries``).  Every
        hit is re-checked against it — an entry is served only when the
        author's chain either has not moved or provably did not re-list
        the cid.
        """
        lru = self._readers.get(reader)
        entry = lru.get(cid) if lru is not None else None
        if entry is None or entry.author != author:
            self.metrics.inc("cache.misses")
            return None
        if view is None:
            # No verified view of the author: freshness cannot be
            # re-checked, so the cache refuses to serve.
            self.metrics.inc("cache.misses")
            return None
        if view.head_hash != entry.head:
            marker = cid.encode()
            republished = any(e.payload == marker
                              for e in view.entries[entry.chain_len:])
            if republished:
                # The author overwrote this cid since we cached it:
                # the copy is provably stale — evict and miss.
                lru.remove(cid)
                self.metrics.inc("cache.invalidations")
                self.metrics.inc("cache.misses")
                return None
            # Chain advanced without touching the cid: re-pin the
            # freshness evidence so the next check is O(1) again.
            entry.head = view.head_hash
            entry.chain_len = len(view.entries)
        self.metrics.inc("cache.hits")
        return entry

    def insert(self, reader: str, author: str, cid: str, post,
               view, version: Optional[int] = None) -> CacheEntry:
        """Cache a verified post, pinned to the author's current head."""
        entry = CacheEntry(author=author, post=post,
                           head=view.head_hash,
                           chain_len=len(view.entries), version=version)
        before = self._lru(reader).evictions
        self._lru(reader).put(cid, entry)
        if self._lru(reader).evictions > before:
            self.metrics.inc("cache.evictions")
        self.metrics.inc("cache.insertions")
        return entry

    def invalidate(self, reader: str, cid: str) -> bool:
        """Explicitly drop one reader's entry; returns whether it existed."""
        lru = self._readers.get(reader)
        if lru is None or lru.remove(cid) is None:
            return False
        self.metrics.inc("cache.invalidations")
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(lru) for lru in self._readers.values())
        return (f"VerifiedContentCache(readers={len(self._readers)}, "
                f"entries={total}, hits={self.hits}, misses={self.misses})")
