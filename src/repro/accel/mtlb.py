"""Metadata TLB (M-TLB).

Almost every lifeguard handler computes a metadata address from an
application address; the paper measures this at more than half of a
simple handler's instructions. The M-TLB caches the most frequently used
application-page -> metadata-page mappings so a hit costs one lookup
instead of the multi-instruction two-level table walk.

The M-TLB only caches *mappings*, so only a high-level event that
deallocates metadata pages (a sophisticated lifeguard freeing metadata
after ``free``) could invalidate it. Simple lifeguards never do (Section
4.1), and neither does any lifeguard here: no event flushes it.
"""

from __future__ import annotations

from typing import Dict

from repro.common.config import LifeguardCostConfig

#: Application page size assumed for metadata mappings.
PAGE_BYTES = 4096


class MetadataTLB:
    """LRU cache of application-page -> metadata-page mappings."""

    __slots__ = ("capacity", "costs", "enabled", "_entries", "_hit_emit",
                 "_miss_emit", "hits", "misses")

    def __init__(self, entries: int, costs: LifeguardCostConfig,
                 enabled: bool = True, tracer=None, owner: str = ""):
        if entries < 1:
            raise ValueError("M-TLB needs at least one entry")
        self.capacity = entries
        self.costs = costs
        self.enabled = enabled
        self._entries: Dict[int, bool] = {}
        # The ``accel`` hit/miss emitters of an optional
        # :class:`~repro.trace.TraceWriter` (None unless it records
        # them); ``owner`` names the lifeguard core this TLB serves.
        self._hit_emit = self._miss_emit = None
        if tracer is not None:
            self._hit_emit = tracer.prepare("accel", "mtlb_hit", ("page",),
                                            owner=owner)
            self._miss_emit = tracer.prepare("accel", "mtlb_miss",
                                             ("page",), owner=owner)
        # Statistics
        self.hits = 0
        self.misses = 0

    def lookup_cost(self, app_addr: int) -> int:
        """Instruction cost of the metadata address computation for one access."""
        if not self.enabled:
            return self.costs.metadata_addr_cost
        page = app_addr // PAGE_BYTES
        if page in self._entries:
            self.hits += 1
            del self._entries[page]
            self._entries[page] = True  # LRU refresh
            if self._hit_emit is not None:
                self._hit_emit(page)
            return self.costs.mtlb_hit_cost
        self.misses += 1
        if len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            del self._entries[victim]
        self._entries[page] = True
        if self._miss_emit is not None:
            self._miss_emit(page)
        return self.costs.metadata_addr_cost

    @property
    def entry_count(self) -> int:
        return len(self._entries)
