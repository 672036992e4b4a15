"""Metadata TLB (M-TLB).

Almost every lifeguard handler computes a metadata address from an
application address; the paper measures this at more than half of a
simple handler's instructions. The M-TLB caches the most frequently used
application-page -> metadata-page mappings so a hit costs one lookup
instead of the multi-instruction two-level table walk.

The M-TLB only caches *mappings*, so its entries can only be invalidated
by high-level events that deallocate metadata pages (a sophisticated
lifeguard freeing metadata after ``free``); simple lifeguards never
invalidate it (Section 4.1). Both behaviours are supported via the
ConflictAlert flush hook.
"""

from __future__ import annotations

from typing import Dict

from repro.common.config import LifeguardCostConfig
from repro.trace.writer import tracer_for

#: Application page size assumed for metadata mappings.
PAGE_BYTES = 4096


class MetadataTLB:
    """LRU cache of application-page -> metadata-page mappings."""

    __slots__ = ("capacity", "costs", "enabled", "_entries", "tracer",
                 "owner", "hits", "misses", "flushes")

    def __init__(self, entries: int, costs: LifeguardCostConfig,
                 enabled: bool = True, tracer=None, owner: str = ""):
        if entries < 1:
            raise ValueError("M-TLB needs at least one entry")
        self.capacity = entries
        self.costs = costs
        self.enabled = enabled
        self._entries: Dict[int, bool] = {}
        #: Optional :class:`~repro.trace.TraceWriter` (``accel`` events),
        #: kept only if it records them; ``owner`` names the lifeguard
        #: core this TLB belongs to.
        self.tracer = tracer_for(tracer, "accel")
        self.owner = owner
        # Statistics
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def lookup_cost(self, app_addr: int) -> int:
        """Instruction cost of the metadata address computation for one access."""
        if not self.enabled:
            return self.costs.metadata_addr_cost
        page = app_addr // PAGE_BYTES
        if page in self._entries:
            self.hits += 1
            del self._entries[page]
            self._entries[page] = True  # LRU refresh
            if self.tracer is not None:
                self.tracer.emit("accel", "mtlb_hit", owner=self.owner,
                                 page=page)
            return self.costs.mtlb_hit_cost
        self.misses += 1
        if len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            del self._entries[victim]
        self._entries[page] = True
        if self.tracer is not None:
            self.tracer.emit("accel", "mtlb_miss", owner=self.owner,
                             page=page)
        return self.costs.metadata_addr_cost

    def flush(self) -> None:
        """Drop all mappings (remote high-level conflict via ConflictAlert)."""
        if self._entries:
            self.flushes += 1
            self._entries.clear()

    @property
    def entry_count(self) -> int:
        return len(self._entries)
