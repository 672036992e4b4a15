"""Semantic unit tests for AddrCheck handlers."""

import pytest

from repro.capture.events import Record, RecordKind
from repro.isa.instructions import HLEventKind
from repro.isa.registers import R0
from repro.lifeguards.addrcheck import ALLOCATED, UNALLOCATED, AddrCheck
from repro.lifeguards.base import event_key
from repro.lifeguards.oracle import replay_events

HEAP = (0x4000_0000, 0x6000_0000)
BLOCK = 0x4000_1000


@pytest.fixture
def addrcheck():
    return AddrCheck(heap_range=HEAP)


def record(kind, tid=0, rid=1, **fields):
    rec = Record(tid, rid, kind)
    for name, value in fields.items():
        setattr(rec, name, value)
    return rec


def malloc_event(addr, size):
    return ("hl", record(RecordKind.HL_END, hl_kind=HLEventKind.MALLOC,
                         ranges=((addr, size),)))


def free_event(addr, size, rid=2):
    return ("hl", record(RecordKind.HL_BEGIN, rid=rid,
                         hl_kind=HLEventKind.FREE, ranges=((addr, size),)))


class TestAllocationLifecycle:
    def test_malloc_marks_allocated(self, addrcheck):
        addrcheck.handle(malloc_event(BLOCK, 64))
        assert addrcheck.metadata.all_equal(BLOCK, 64, ALLOCATED)

    def test_free_unmarks(self, addrcheck):
        addrcheck.handle(malloc_event(BLOCK, 64))
        addrcheck.handle(free_event(BLOCK, 64))
        assert addrcheck.metadata.all_equal(BLOCK, 64, UNALLOCATED)
        assert addrcheck.violations == []

    def test_double_free_reported(self, addrcheck):
        addrcheck.handle(malloc_event(BLOCK, 64))
        addrcheck.handle(free_event(BLOCK, 64))
        addrcheck.handle(free_event(BLOCK, 64, rid=3))
        assert [v.kind for v in addrcheck.violations] == ["bad-free"]

    def test_wild_free_reported(self, addrcheck):
        addrcheck.handle(free_event(BLOCK, 64))
        assert addrcheck.violations[0].kind == "bad-free"

    def test_overlapping_malloc_reported(self, addrcheck):
        addrcheck.handle(malloc_event(BLOCK, 64))
        addrcheck.handle(malloc_event(BLOCK + 32, 64))
        assert addrcheck.violations[0].kind == "overlapping-allocation"


class TestAccessChecks:
    def test_access_to_allocated_is_clean(self, addrcheck):
        addrcheck.handle(malloc_event(BLOCK, 64))
        addrcheck.handle(("load", record(RecordKind.LOAD, addr=BLOCK,
                                         size=4)))
        assert addrcheck.violations == []

    def test_access_to_unallocated_heap_reported(self, addrcheck):
        addrcheck.handle(("store", record(RecordKind.STORE, addr=BLOCK,
                                          size=4)))
        assert addrcheck.violations[0].kind == "unallocated-access"

    def test_partially_out_of_bounds_access_reported(self, addrcheck):
        addrcheck.handle(malloc_event(BLOCK, 4))
        addrcheck.handle(("load", record(RecordKind.LOAD, addr=BLOCK + 4,
                                         size=4)))
        assert addrcheck.violations[0].kind == "unallocated-access"

    def test_use_after_free_reported(self, addrcheck):
        addrcheck.handle(malloc_event(BLOCK, 64))
        addrcheck.handle(free_event(BLOCK, 64))
        addrcheck.handle(("load", record(RecordKind.LOAD, rid=9, addr=BLOCK,
                                         size=4)))
        assert addrcheck.violations[0].kind == "unallocated-access"

    def test_non_heap_access_ignored(self, addrcheck):
        # The delivery address-range filter drops it before dispatch.
        global_load = ("load", record(RecordKind.LOAD, addr=0x1000, size=4))
        assert replay_events([global_load], lambda: addrcheck) is addrcheck
        assert addrcheck.violations == []


class TestEventDeliveryFiltering:
    def test_wants_heap_memory_events_only(self, addrcheck):
        heap_load = ("load", record(RecordKind.LOAD, addr=BLOCK, size=4))
        global_load = ("load", record(RecordKind.LOAD, addr=0x1000, size=4))
        reg_event = ("alu", record(RecordKind.ALU, rd=R0, rs1=R0))
        assert "load" in addrcheck.handlers
        assert addrcheck.delivery_range == HEAP
        start, end = addrcheck.delivery_range
        assert start <= heap_load[1].addr < end
        assert not start <= global_load[1].addr < end
        assert reg_event[0] not in addrcheck.handlers
        assert event_key(malloc_event(BLOCK, 8)) in addrcheck.handlers

    def test_if_key_for_heap_accesses(self, addrcheck):
        heap_load = ("load", record(RecordKind.LOAD, addr=BLOCK, size=4))
        assert addrcheck.if_key(heap_load) == (BLOCK, 4, "ac", 0)
        global_load = ("load", record(RecordKind.LOAD, addr=0x1000, size=4))
        assert addrcheck.if_key(global_load) is None
        assert addrcheck.if_key(malloc_event(BLOCK, 8)) is None

    def test_ca_subscriptions_cover_allocation_events(self, addrcheck):
        from repro.isa.instructions import HLPhase, hl_begin, hl_end, load
        from tests.test_lifeguard_core import Harness
        assert (HLEventKind.MALLOC, HLPhase.END) in addrcheck.ca_subscriptions
        assert (HLEventKind.FREE, HLPhase.BEGIN) in addrcheck.ca_subscriptions
        # Each subscribed event empties the IF, so the check after it is
        # delivered again.
        harness = Harness(addrcheck)
        harness.feed(load(R0, BLOCK))
        harness.feed(load(R0, BLOCK))  # filtered
        harness.feed(hl_end(HLEventKind.MALLOC, ranges=((BLOCK, 8),)))
        harness.feed(load(R0, BLOCK))
        harness.feed(hl_begin(HLEventKind.FREE, ranges=((BLOCK, 8),)))
        harness.feed(load(R0, BLOCK))
        harness.run()
        assert harness.core.iff.invalidations == 2
        assert harness.core.events_filtered == 1
        assert [v.kind for v in addrcheck.violations] == [
            "unallocated-access", "unallocated-access"]

    def test_no_instruction_arc_requirement(self, addrcheck):
        assert not addrcheck.needs_instruction_arcs
