"""Configuration for the hot-path read cache (:mod:`repro.cache`).

One frozen dataclass gates everything the cache subsystem does, mirroring
how :class:`repro.storage2.ReplicationConfig` gates the quorum store:
``DosnConfig(cache=CacheConfig(...))`` switches the read side of a
:class:`~repro.dosn.api.DosnNetwork` onto the cached + batched paths;
``cache=None`` (the default) caches nothing and fetches each feed cid
on its own, drawing no RNG and sending no message the cached path adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.exceptions import SimulationError

__all__ = ["CacheConfig"]


@dataclass(frozen=True)
class CacheConfig:
    """Knobs for the per-reader verified-content cache and batched reads.

    ``capacity_per_reader=0`` disables the LRU tier while keeping batched
    feed fan-out on — the configuration E16 uses to price batching and
    caching separately.
    """

    #: max verified posts cached per reader (LRU eviction beyond this;
    #: 0 disables the cache tier entirely)
    capacity_per_reader: int = 256
    #: warm both sides' caches with the new friend's recent posts on
    #: ``befriend`` (and via :meth:`DosnNetwork.prefetch` on demand)
    prefetch: bool = True
    #: how many of a friend's newest posts a prefetch pulls
    prefetch_depth: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if self.capacity_per_reader < 0:
            raise SimulationError("capacity_per_reader must be >= 0")

    @property
    def caching(self) -> bool:
        """Whether the verified-content LRU tier is active."""
        return self.capacity_per_reader > 0
