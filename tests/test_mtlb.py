"""Unit tests for the Metadata TLB."""

import pytest

from repro.accel.mtlb import PAGE_BYTES, MetadataTLB
from repro.common.config import LifeguardCostConfig


@pytest.fixture
def costs():
    return LifeguardCostConfig()


class TestLookup:
    def test_miss_then_hit_costs(self, costs):
        mtlb = MetadataTLB(entries=4, costs=costs)
        assert mtlb.lookup_cost(0x1000) == costs.metadata_addr_cost
        assert mtlb.lookup_cost(0x1000) == costs.mtlb_hit_cost

    def test_same_page_different_offset_hits(self, costs):
        mtlb = MetadataTLB(entries=4, costs=costs)
        mtlb.lookup_cost(0x1000)
        assert mtlb.lookup_cost(0x1000 + PAGE_BYTES - 4) == costs.mtlb_hit_cost

    def test_different_pages_miss(self, costs):
        mtlb = MetadataTLB(entries=4, costs=costs)
        mtlb.lookup_cost(0x1000)
        assert mtlb.lookup_cost(0x1000 + PAGE_BYTES) == costs.metadata_addr_cost

    def test_lru_eviction(self, costs):
        mtlb = MetadataTLB(entries=2, costs=costs)
        mtlb.lookup_cost(0 * PAGE_BYTES)
        mtlb.lookup_cost(1 * PAGE_BYTES)
        mtlb.lookup_cost(0 * PAGE_BYTES)  # refresh page 0
        mtlb.lookup_cost(2 * PAGE_BYTES)  # evicts page 1
        assert mtlb.lookup_cost(0 * PAGE_BYTES) == costs.mtlb_hit_cost
        assert mtlb.lookup_cost(1 * PAGE_BYTES) == costs.metadata_addr_cost

    def test_disabled_always_pays_full_cost(self, costs):
        mtlb = MetadataTLB(entries=4, costs=costs, enabled=False)
        mtlb.lookup_cost(0x1000)
        assert mtlb.lookup_cost(0x1000) == costs.metadata_addr_cost
        assert mtlb.entry_count == 0

    def test_capacity_validated(self, costs):
        with pytest.raises(ValueError):
            MetadataTLB(entries=0, costs=costs)


class TestStatistics:
    def test_statistics(self, costs):
        mtlb = MetadataTLB(entries=4, costs=costs)
        mtlb.lookup_cost(0x1000)
        mtlb.lookup_cost(0x1000)
        assert (mtlb.hits, mtlb.misses) == (1, 1)
