"""Unit tests for Inheritance Tracking — the heart of the accelerators.

The tests build record streams by hand and check what IT absorbs,
delivers and flushes, including the Figure 3 scenario, local-conflict
flushing, the self-referencing accumulator pattern, and delayed
advertising's min-RID bookkeeping.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.accel.inheritance import MAX_SOURCES, InheritanceTracking
from repro.capture.events import RecordSource
from repro.isa.instructions import (
    HLEventKind,
    alu,
    critical_use,
    hl_end,
    load,
    loadi,
    movrr,
    rmw,
    store,
    thread_exit,
)
from repro.isa.registers import R0, R1, R2, R3, R4


class Stream:
    """Stamps records with sequential RIDs for one thread."""

    def __init__(self, tid=0):
        self.tid = tid
        self.rid = 0

    def record(self, op):
        self.rid += 1
        return RecordSource(self.tid, {self.tid: self.rid - 1}).begin_record(op)


def kinds(events):
    return [event[0] for event in events]


class TestAbsorption:
    def test_load_propagation_is_absorbed_check_is_delivered(self):
        it, stream = InheritanceTracking(), Stream()
        events = it.process(stream.record(load(R0, 0x100)))
        assert kinds(events) == ["load_check"]
        assert it.row_count == 1
        assert it.absorbed_events == 1

    def test_loadi_is_absorbed_as_immediate(self):
        it, stream = InheritanceTracking(), Stream()
        assert it.process(stream.record(loadi(R0))) == []
        assert it.min_held_rid(0) is None  # immediates pin no RID

    def test_mov_copies_row(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        assert it.process(stream.record(movrr(R1, R0))) == []
        assert it.row_count == 2

    def test_mov_of_live_register_is_deferred(self):
        it, stream = InheritanceTracking(), Stream()
        assert it.process(stream.record(movrr(R1, R0))) == []
        # Storing R1 must read R0's live metadata at delivery time.
        events = it.process(stream.record(store(0x200, R1)))
        assert kinds(events) == ["mem_inherit"]
        _, dst, _size, sources, live_regs, _rec = events[0]
        assert dst == 0x200 and sources == () and live_regs == (R0,)

    def test_unary_alu_propagates(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        assert it.process(stream.record(alu(R1, R0))) == []

    def test_binary_merge_within_capacity(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        it.process(stream.record(load(R1, 0x200)))
        assert it.process(stream.record(alu(R2, R0, R1))) == []
        events = it.process(stream.record(store(0x300, R2)))
        assert kinds(events) == ["mem_inherit"]
        _, _dst, _size, sources, _regs, _rec = events[0]
        assert set(sources) == {(0x100, 4), (0x200, 4)}

    def test_merge_overflow_flushes_and_delivers(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        it.process(stream.record(load(R1, 0x200)))
        it.process(stream.record(alu(R2, R0, R1)))  # R2 holds 2 sources
        it.process(stream.record(load(R3, 0x300)))
        events = it.process(stream.record(alu(R2, R2, R3)))
        assert kinds(events) == ["reg_inherit", "reg_inherit", "alu"]

    def test_accumulator_self_reference(self):
        it, stream = InheritanceTracking(), Stream()
        # R2 is live (no row); folding a loaded value into it is absorbed
        # by referencing R2's own stored metadata.
        it.process(stream.record(load(R0, 0x100)))
        assert it.process(stream.record(alu(R2, R2, R0))) == []
        events = it.process(stream.record(store(0x300, R2)))
        _, _dst, _size, sources, live_regs, _rec = events[0]
        assert sources == ((0x100, 4),) and live_regs == (R2,)

    def test_duplicate_sources_deduplicate(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        it.process(stream.record(movrr(R1, R0)))
        assert it.process(stream.record(alu(R2, R0, R1))) == []


class TestStores:
    def test_store_of_loaded_register_condenses(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        events = it.process(stream.record(store(0x200, R0)))
        assert kinds(events) == ["mem_inherit"]
        assert it.delivered_condensed == 1

    def test_store_of_immediate_register(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(loadi(R0)))
        events = it.process(stream.record(store(0x200, R0)))
        _, _dst, _size, sources, live_regs, _rec = events[0]
        assert sources == () and live_regs == ()

    def test_store_without_row_is_plain(self):
        it, stream = InheritanceTracking(), Stream()
        events = it.process(stream.record(store(0x200, R0)))
        assert kinds(events) == ["store"]

    def test_store_to_own_source_keeps_row(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        events = it.process(stream.record(store(0x100, R0)))
        assert kinds(events) == ["mem_inherit"]
        assert it.row_count == 1  # the row survives an exact self-store


class TestLocalConflicts:
    def test_store_flushes_overlapping_rows(self):
        """The sequential-IT conflict rule (Section 4.1): a local store to
        a recorded inherits-from address flushes the row first."""
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        it.process(stream.record(loadi(R1)))
        events = it.process(stream.record(store(0x100, R1)))
        assert kinds(events) == ["reg_inherit", "mem_inherit"]
        _, tid, reg, sources, _regs = events[0]
        assert (tid, reg, sources) == (0, R0, ((0x100, 4),))

    def test_partial_overlap_also_flushes(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100, 8)))
        it.process(stream.record(loadi(R1)))
        events = it.process(stream.record(store(0x104, R1, size=4)))
        assert kinds(events) == ["reg_inherit", "mem_inherit"]

    def test_disjoint_store_leaves_rows(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        it.process(stream.record(loadi(R1)))
        events = it.process(stream.record(store(0x200, R1)))
        assert kinds(events) == ["mem_inherit"]
        assert it.row_count == 2

    def test_rmw_flushes_overlapping_and_delivers(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        events = it.process(stream.record(rmw(R1, 0x100, 1)))
        assert kinds(events) == ["reg_inherit", "rmw"]


class TestReferenceInvalidation:
    def test_materializing_a_row_flushes_referencing_rows_first(self):
        it, stream = InheritanceTracking(), Stream()
        # R1's row references live R0; then R0 gains a row; flushing R0's
        # row (here via critical use) must deliver R1's row *first* so it
        # reads R0's pre-materialization metadata.
        it.process(stream.record(movrr(R1, R0)))
        it.process(stream.record(load(R0, 0x100)))
        events = it.process(stream.record(critical_use(R0)))
        assert kinds(events) == ["reg_inherit", "reg_inherit", "critical"]
        assert events[0][2] == R1  # the referencing row goes first
        assert events[1][2] == R0


class TestCriticalAndExit:
    def test_critical_use_flushes_register(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        events = it.process(stream.record(critical_use(R0)))
        assert kinds(events) == ["reg_inherit", "critical"]

    def test_critical_use_of_live_register(self):
        it, stream = InheritanceTracking(), Stream()
        events = it.process(stream.record(critical_use(R0)))
        assert kinds(events) == ["critical"]

    def test_thread_exit_flushes_thread_rows(self):
        it, stream = InheritanceTracking(), Stream()
        other = Stream(tid=1)
        it.process(stream.record(load(R0, 0x100)))
        it.process(other.record(load(R0, 0x200)))
        events = it.process(stream.record(thread_exit()))
        assert kinds(events) == ["reg_inherit"]
        assert it.row_count == 1  # thread 1's row survives

    def test_hl_records_pass_through(self):
        it, stream = InheritanceTracking(), Stream()
        events = it.process(stream.record(hl_end(HLEventKind.MALLOC)))
        assert kinds(events) == ["hl"]


class TestDelayedAdvertising:
    def test_min_held_rid_tracks_oldest_source(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))  # rid 1
        it.process(stream.record(load(R1, 0x200)))  # rid 2
        assert it.min_held_rid(0) == 1

    def test_merge_keeps_oldest_rid(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))  # rid 1
        it.process(stream.record(load(R1, 0x200)))  # rid 2
        it.process(stream.record(alu(R2, R0, R1)))  # merged row keeps rid 1
        it.process(stream.record(load(R0, 0x300)))  # rid 4 replaces rid 1 row
        it.process(stream.record(load(R1, 0x400)))  # rid 5
        assert it.min_held_rid(0) == 1  # via the merged R2 row

    def test_flush_rid_holding_releases_progress(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        it.process(stream.record(loadi(R1)))
        events = it.flush_rid_holding()
        assert kinds(events) == ["reg_inherit"]
        assert it.min_held_rid(0) is None
        assert it.row_count == 1  # the immediate row survives

    def test_flush_stale_only_hits_old_rows(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))  # rid 1
        it.process(stream.record(load(R1, 0x200)))  # rid 2
        events = it.flush_stale(0, rid_floor=2)
        assert kinds(events) == ["reg_inherit"]
        assert it.min_held_rid(0) == 2

    def test_flush_all_empties_table(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))
        it.process(stream.record(loadi(R1)))
        events = it.flush_all()
        assert len(events) == 2
        assert it.row_count == 0

    def test_per_thread_min(self):
        it = InheritanceTracking()
        s0, s1 = Stream(0), Stream(1)
        s1.rid = 100
        it.process(s0.record(load(R0, 0x100)))
        it.process(s1.record(load(R0, 0x200)))
        assert it.min_held_rid(0) == 1
        assert it.min_held_rid(1) == 101


class TestFigure3Scenario:
    def test_inherits_from_survives_until_consuming_store(self):
        """The paper's Figure 3 stream: mov %eax<-A; mov %ebx<-%eax;
        mov B<-%ebx condenses to one mem_to_mem(B, A) event, and the RID
        of the original load is held until the row is gone."""
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0xA0)))  # i: %eax <- A
        it.process(stream.record(movrr(R1, R0)))  # i+1: %ebx <- %eax
        assert it.min_held_rid(0) == 1  # progress held at i-1
        events = it.process(stream.record(store(0xB0, R1)))  # i+2: B <- %ebx
        assert kinds(events) == ["mem_inherit"]
        _, dst, _size, sources, _regs, _rec = events[0]
        assert dst == 0xB0 and sources == ((0xA0, 4),)
        # Rows for %eax and %ebx still hold rid i; overwriting both
        # releases the delayed advertising.
        it.process(stream.record(load(R0, 0xC0)))  # i+3
        assert it.min_held_rid(0) == 1
        it.process(stream.record(load(R1, 0xD0)))  # i+4
        assert it.min_held_rid(0) == 4


class TestPassthrough:
    @pytest.mark.parametrize("op,expected", [
        (load(R0, 0x100), "load"),
        (store(0x100, R0), "store"),
        (rmw(R0, 0x100, 1), "rmw"),
        (movrr(R0, R1), "movrr"),
        (alu(R0, R1, R2), "alu"),
        (loadi(R0), "loadi"),
        (critical_use(R0), "critical"),
        (hl_end(HLEventKind.FREE), "hl"),
    ])
    def test_disabled_it_delivers_plainly(self, op, expected):
        it, stream = InheritanceTracking(enabled=False), Stream()
        events = it.process(stream.record(op))
        assert kinds(events) == [expected]

    def test_disabled_it_drops_nothing_relevant(self):
        it, stream = InheritanceTracking(enabled=False), Stream()
        assert it.process(stream.record(thread_exit())) == []
        assert it.row_count == 0


# ---------------------------------------------------------------------------
# The cached delayed-advertising floor
# ---------------------------------------------------------------------------

_REGS = st.integers(0, 4)
#: Aligned slots over three cache lines; an 8-byte access covers two
#: 4-byte ones, so stores flush rows they only partly overlap.
_ADDRS = st.sampled_from([0x100, 0x108, 0x110, 0x140, 0x148, 0x180])
_SIZES = st.sampled_from([4, 8])


def _it_steps(tids):
    tid = st.sampled_from(tids)
    return st.lists(st.one_of(
        st.tuples(st.just("load"), tid, _REGS, _ADDRS, _SIZES, st.booleans()),
        st.tuples(st.just("alu"), tid, _REGS, _REGS, st.none() | _REGS),
        st.tuples(st.just("movrr"), tid, _REGS, _REGS),
        st.tuples(st.just("loadi"), tid, _REGS),
        st.tuples(st.just("store"), tid, _REGS, _ADDRS, _SIZES),
        st.tuples(st.just("rmw"), tid, _REGS, _ADDRS),
        st.tuples(st.just("flush_all")),
        st.tuples(st.just("flush_rid_holding")),
        st.tuples(st.just("flush_stale"), tid, st.integers(0, 6)),
        st.tuples(st.just("flush_thread"), tid),
    ), max_size=60)


def _scanned_floor(it, tid):
    """The reference: a brute-force scan of the rows."""
    held = [row.rid for (row_tid, _reg), row in it._rows.items()
            if row_tid == tid and row.rid is not None]
    return min(held) if held else None


def _drive(it, tids, steps):
    streams = {tid: Stream(tid) for tid in tids}
    for step in steps:
        name = step[0]
        if name == "load":
            _, tid, rd, addr, size, versioned = step
            record = streams[tid].record(load(rd, addr, size))
            if versioned:
                record.consume_version = (1, addr, size)
            it.process(record)
        elif name == "alu":
            _, tid, rd, rs1, rs2 = step
            it.process(streams[tid].record(alu(rd, rs1, rs2)))
        elif name == "movrr":
            it.process(streams[step[1]].record(movrr(step[2], step[3])))
        elif name == "loadi":
            it.process(streams[step[1]].record(loadi(step[2])))
        elif name == "store":
            _, tid, rs, addr, size = step
            it.process(streams[tid].record(store(addr, rs, size=size)))
        elif name == "rmw":
            it.process(streams[step[1]].record(rmw(step[2], step[3], 1)))
        elif name == "flush_stale":
            _, tid, lag = step
            it.flush_stale(tid, max(0, streams[tid].rid - lag))
        elif name == "flush_thread":
            it.flush_thread(step[1])
        else:
            getattr(it, name)()
        for tid in tids:
            assert it.min_held_rid(tid) == _scanned_floor(it, tid), step


class TestCachedFloor:
    """``min_held_rid`` answers from a per-thread cache that inserts
    lower and removals of the floor row invalidate; after every step it
    must equal a scan of the rows."""

    @settings(max_examples=200, deadline=None)
    @given(_it_steps([0]))
    def test_single_thread_stream(self, steps):
        # The parallel shape: one lifeguard core per application thread.
        _drive(InheritanceTracking(), [0], steps)

    @settings(max_examples=200, deadline=None)
    @given(_it_steps([0, 1, 2]))
    def test_interleaved_threads(self, steps):
        # The time-sliced shape: one table, rows of several threads.
        _drive(InheritanceTracking(), [0, 1, 2], steps)

    def test_replacing_the_floor_row_rescans(self):
        it, stream = InheritanceTracking(), Stream()
        it.process(stream.record(load(R0, 0x100)))  # rid 1: the floor
        it.process(stream.record(load(R1, 0x104)))  # rid 2
        assert it.min_held_rid(0) == 1
        it.process(stream.record(loadi(R0)))  # replaces the rid-1 row
        assert it.min_held_rid(0) == 2
        it.process(stream.record(movrr(R2, R1)))  # copies rid 2
        it.process(stream.record(loadi(R1)))
        assert it.min_held_rid(0) == 2  # still held, via R2
        it.flush_all()
        assert it.min_held_rid(0) is None
