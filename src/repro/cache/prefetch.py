"""Social prefetch: warm a reader's cache with friends' timeline heads.

The social graph *is* the access predictor in an OSN — what a reader
fetches next is overwhelmingly the newest posts of their friends
(the observation socially-aware DHT placement builds on).  The
prefetcher exploits it on the read side: on ``befriend`` (and on
demand) it batch-fetches the newest posts of a reader's friends through
:meth:`StorageBackend.get_many`, opens them through the normal
decrypt + verify pipeline, and seeds the
:class:`~repro.cache.content.VerifiedContentCache` — so the reader's
next ``feed`` is served warm.

Prefetching is best-effort: unavailable or unverifiable posts are simply
skipped (the feed path will report them properly), and nothing enters
the cache without passing the full verification pipeline first.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.cache.content import VerifiedContentCache
from repro.exceptions import ReproError
from repro.obs.trace import NOOP_TRACER

__all__ = ["SocialPrefetcher"]


class SocialPrefetcher:
    """Warms per-reader caches along social edges.

    The four callbacks decouple the prefetcher from
    :class:`~repro.dosn.api.DosnNetwork` (which wires them to its users,
    storage backend and protection stack):

    * ``view_of(reader, author)`` — sync and return the reader's
      chain-verified view of the author (or ``None``);
    * ``fetch_many(reader, cids)`` — the batched storage read; returns
      ``cid -> blob-like | exception``;
    * ``open_post(reader, author, blob, cid)`` — decrypt + verify one
      fetched blob (raises on violation).
    """

    def __init__(self, cache: VerifiedContentCache, depth: int,
                 view_of: Callable[[str, str], object],
                 fetch_many: Callable[[str, List[str]], Dict[str, object]],
                 open_post: Callable[[str, str, bytes, str], object],
                 tracer=None) -> None:
        self.cache = cache
        self.depth = depth
        self._view_of = view_of
        self._fetch_many = fetch_many
        self._open_post = open_post
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    @property
    def prefetched(self) -> int:
        """Posts warmed so far: ``cache.prefetched`` in the cache's
        registry."""
        return self.cache.metrics.get_counter_value("cache.prefetched")

    def warm(self, reader: str, friends: Iterable[str]) -> int:
        """Prefetch ``friends``' newest posts into ``reader``'s cache.

        Returns how many posts were verified and cached.  Already-cached
        cids are skipped before any fetch is issued, so repeated warming
        is idempotent and (warm) free.
        """
        if self.depth <= 0:
            return 0
        wanted: List[Tuple[str, str]] = []   # (author, cid), fetch order
        views: Dict[str, object] = {}
        for author in sorted(set(friends)):
            if author == reader:
                continue
            view = self._view_of(reader, author)
            if view is None:
                continue
            views[author] = view
            seen = set()
            cids: List[str] = []
            for entry in view.entries:
                cid = entry.payload.decode()
                if cid not in seen:
                    seen.add(cid)
                    cids.append(cid)
            for cid in cids[-self.depth:]:
                if not self.cache.contains(reader, cid):
                    wanted.append((author, cid))
        if not wanted:
            return 0
        with self.tracer.span("cache.prefetch", reader=reader,
                              wanted=len(wanted)) as span:
            blobs = self._fetch_many(reader, [cid for _, cid in wanted])
            warmed = 0
            for author, cid in wanted:
                got = blobs.get(cid)
                if got is None or isinstance(got, Exception):
                    continue
                blob = getattr(got, "blob", got)
                if getattr(got, "degraded", False):
                    continue  # possibly-stale copies never enter the cache
                try:
                    post = self._open_post(reader, author, blob, cid)
                except ReproError:
                    continue
                self.cache.insert(reader, author, cid, post,
                                  views[author],
                                  version=getattr(got, "version", None))
                warmed += 1
            span.set_attr("warmed", warmed)
        if warmed:
            self.cache.metrics.inc("cache.prefetched", warmed)
        return warmed
