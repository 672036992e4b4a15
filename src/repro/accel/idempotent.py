"""Idempotent Filters (IF).

IF caches recently seen *check* events. A check whose key hits in the
cache is redundant — the metadata it would consult cannot have changed
since the cached check — so it is filtered out and never delivered to the
lifeguard (Section 4.1's ADDRCHECK example: two checks of the same
address are idempotent unless a ``malloc``/``free`` intervened).

Which events are filterable, and which events invalidate the cache, is
configured by the lifeguard (via ``if_key`` / ConflictAlert
subscriptions). When a lifeguard's checks can also be invalidated by
*instruction-level* remote events, entries are tagged with their record
id and participate in delayed advertising (``track_rids=True``); for
lifeguards like AddrCheck whose metadata only changes on high-level
events, the CA barrier alone is sufficient and tracking is off.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional


class IdempotentFilter:
    """A small FIFO cache of check-event keys."""

    def __init__(self, entries: int = 32, enabled: bool = True,
                 track_rids: bool = False, tracer=None, owner: str = ""):
        if entries < 1:
            raise ValueError("IF needs at least one entry")
        self.capacity = entries
        self.enabled = enabled
        self.track_rids = track_rids
        self._cache: Dict[Hashable, int] = {}
        # The ``accel`` hit/miss emitters of an optional
        # :class:`~repro.trace.TraceWriter` (None unless it records
        # them); ``owner`` names the lifeguard core this filter serves.
        self._hit_emit = self._miss_emit = None
        if tracer is not None:
            self._hit_emit = tracer.prepare("accel", "if_hit", ("rid",),
                                            owner=owner)
            self._miss_emit = tracer.prepare("accel", "if_miss", ("rid",),
                                             owner=owner)
        # Statistics
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def check(self, key: Hashable, rid: int) -> bool:
        """Present a check event; True means "redundant, filter it".

        A miss inserts the key (evicting FIFO-oldest if full) and returns
        False — the event must be delivered to the lifeguard.
        """
        if not self.enabled:
            return False
        if key in self._cache:
            self.hits += 1
            if self._hit_emit is not None:
                self._hit_emit(rid)
            return True
        self.misses += 1
        if len(self._cache) >= self.capacity:
            oldest = next(iter(self._cache))
            del self._cache[oldest]
        self._cache[key] = rid
        if self._miss_emit is not None:
            self._miss_emit(rid)
        return False

    def invalidate_all(self) -> None:
        """Drop everything (ConflictAlert for malloc/free, stalls, ...)."""
        if self._cache:
            self.invalidations += 1
            self._cache.clear()

    def invalidate_overlapping(self, addr: int, size: int) -> None:
        """Drop entries whose key ranges overlap a write.

        Keys are opaque to IF in general; this helper understands the
        conventional ``(addr, size)``-prefixed keys our lifeguards use.
        """
        victims = [
            key
            for key in self._cache
            if isinstance(key, tuple)
            and len(key) >= 2
            and isinstance(key[0], int)
            and isinstance(key[1], int)
            and key[0] < addr + size
            and addr < key[0] + key[1]
        ]
        for key in victims:
            del self._cache[key]
        if victims:
            self.invalidations += 1

    def min_held_rid(self) -> Optional[int]:
        """Delayed advertising: smallest RID cached (None if untracked/empty)."""
        if not self.track_rids or not self._cache:
            return None
        return min(self._cache.values())

    @property
    def entry_count(self) -> int:
        return len(self._cache)
