"""Unit tests for per-thread order capture."""

import pytest

from repro.capture.events import RecordKind
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.common.config import CaptureMode, LogBufferConfig, SimulationConfig
from repro.cpu.engine import Engine
from repro.isa.instructions import HLEventKind, load, store
from repro.isa.registers import R0
from repro.memory.coherence import Conflict


def make_capture(tid=0, mode=CaptureMode.PER_BLOCK, reduction=True,
                 log_bytes=1024):
    engine = Engine()
    config = SimulationConfig(capture_mode=mode,
                              transitive_reduction=reduction)
    log = LogBuffer(engine, LogBufferConfig(size_bytes=log_bytes), "log")
    core_to_tid = {0: 0, 1: 1, 2: 2}
    current_rids = {}
    capture = OrderCapture(tid, config, log, core_to_tid, current_rids)
    return capture, log, current_rids


class TestRidAssignment:
    def test_rids_are_dense_from_one(self):
        capture, _, rids = make_capture()
        first = capture.begin_record(load(R0, 0x100))
        second = capture.begin_record(store(0x100, R0))
        assert (first.rid, second.rid) == (1, 2)
        assert rids[0] == 2

    def test_record_carries_op_fields(self):
        capture, _, _ = make_capture()
        record = capture.begin_record(load(R0, 0x140, 4))
        assert record.kind == RecordKind.LOAD
        assert record.addr == 0x140
        assert record.rd == R0


class TestArcs:
    def test_per_block_uses_conflict_rid(self):
        capture, _, _ = make_capture()
        record = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(record, [Conflict(1, 17, True)])
        assert record.arcs == [(1, 17)]

    def test_per_core_uses_current_counter(self):
        capture, _, rids = make_capture(mode=CaptureMode.PER_CORE)
        rids[1] = 42
        record = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(record, [Conflict(1, 17, True)])
        assert record.arcs == [(1, 42)]

    def test_self_arcs_dropped(self):
        capture, _, _ = make_capture()
        record = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(record, [Conflict(0, 5, True)])
        assert record.arcs is None

    def test_unknown_core_dropped(self):
        capture, _, _ = make_capture()
        record = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(record, [Conflict(9, 5, True)])
        assert record.arcs is None

    def test_transitive_reduction_drops_implied_arcs(self):
        capture, _, _ = make_capture()
        first = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(first, [Conflict(1, 10, True)])
        second = capture.begin_record(load(R0, 0x140))
        capture.attach_conflicts(second, [Conflict(1, 8, True)])
        assert first.arcs == [(1, 10)]
        assert second.arcs is None
        assert capture.arcs_reduced == 1

    def test_later_arcs_still_recorded(self):
        capture, _, _ = make_capture()
        first = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(first, [Conflict(1, 10, True)])
        second = capture.begin_record(load(R0, 0x140))
        capture.attach_conflicts(second, [Conflict(1, 11, True)])
        assert second.arcs == [(1, 11)]

    def test_reduction_is_per_source_thread(self):
        capture, _, _ = make_capture()
        first = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(first, [Conflict(1, 10, True)])
        second = capture.begin_record(load(R0, 0x140))
        capture.attach_conflicts(second, [Conflict(2, 3, True)])
        assert second.arcs == [(2, 3)]

    def test_reduction_can_be_disabled(self):
        capture, _, _ = make_capture(reduction=False)
        first = capture.begin_record(load(R0, 0x100))
        capture.attach_conflicts(first, [Conflict(1, 10, True)])
        second = capture.begin_record(load(R0, 0x140))
        capture.attach_conflicts(second, [Conflict(1, 8, True)])
        assert second.arcs == [(1, 8)]


class TestCommit:
    def test_flush_commits_in_order(self):
        capture, log, _ = make_capture()
        a = capture.begin_record(load(R0, 0x100))
        b = capture.begin_record(load(R0, 0x140))
        capture.enqueue(a)
        capture.enqueue(b)
        assert capture.flush()
        assert log.pop() is a
        assert log.pop() is b

    def test_flush_blocks_on_full_log(self):
        capture, log, _ = make_capture(log_bytes=1)
        a = capture.begin_record(load(R0, 0x100))
        b = capture.begin_record(load(R0, 0x140))
        capture.enqueue(a)
        capture.enqueue(b)
        assert not capture.flush()
        log.pop()
        assert capture.flush()
        assert capture.fully_committed

    def test_unfinalized_record_blocks_later_ones(self):
        capture, log, _ = make_capture()
        pending_store = capture.begin_record(store(0x100, R0))
        later = capture.begin_record(load(R0, 0x140))
        capture.enqueue(pending_store, finalized=False)
        capture.enqueue(later)
        assert capture.flush()  # nothing *finalized* is blocked
        assert len(log) == 0
        capture.finalize_store(pending_store, [])
        assert capture.flush()
        assert log.pop() is pending_store
        assert log.pop() is later

    def test_commit_time_is_globally_monotone(self):
        capture, _, _ = make_capture()
        a = capture.begin_record(load(R0, 0x100))
        capture.enqueue(a)
        b = capture.begin_record(load(R0, 0x140))
        capture.enqueue(b)
        assert a.commit_time < b.commit_time

    def test_finalize_store_attaches_conflicts(self):
        capture, _, _ = make_capture()
        record = capture.begin_record(store(0x100, R0))
        capture.enqueue(record, finalized=False)
        capture.finalize_store(record, [Conflict(1, 4, False)])
        assert record.arcs == [(1, 4)]
        assert record.commit_time is not None


class TestPendingLoads:
    def test_find_pending_load_matches_line(self):
        capture, _, _ = make_capture()
        record = capture.begin_record(load(R0, 0x1040))
        capture.enqueue(record, finalized=False)
        assert capture.find_pending_load(0x1040 // 64, 64) is record
        assert capture.find_pending_load(0x2000 // 64, 64) is None

    def test_newest_pending_load_wins(self):
        capture, _, _ = make_capture()
        old = capture.begin_record(load(R0, 0x1040))
        new = capture.begin_record(load(R0, 0x1044))
        capture.enqueue(old, finalized=False)
        capture.enqueue(new, finalized=False)
        assert capture.find_pending_load(0x1040 // 64, 64) is new


class TestCARecords:
    def test_insert_ca_record_appends_mark(self):
        capture, log, _ = make_capture()
        record = capture.insert_ca_record(
            7, HLEventKind.FREE, RecordKind.HL_BEGIN, ((0x100, 32),), 1)
        assert record.kind == RecordKind.CA_MARK
        assert record.ca_id == 7
        assert not record.ca_issuer
        assert record.ranges == ((0x100, 32),)
        assert record.rid == 1
        capture.flush()
        assert log.pop() is record


class TestTsoPending:
    """Under TSO stores wait, unfinalized, in the pending queue until
    their store-buffer drain; loads and marks queue behind them."""

    def test_stores_finalized_out_of_order_commit_in_order(self):
        capture, log, _ = make_capture()
        first = capture.begin_record(store(0x100, R0))
        second = capture.begin_record(store(0x140, R0))
        later = capture.begin_record(load(R0, 0x180))
        capture.enqueue(first, finalized=False)
        capture.enqueue(second, finalized=False)
        capture.enqueue(later)
        capture.finalize_store(second, [])
        assert capture.flush()
        assert len(log) == 0  # the older store still blocks the head
        assert capture.pending_unfinalized_stores() == 1
        capture.finalize_store(first, [])
        assert capture.flush()
        assert [log.pop() for _ in range(3)] == [first, second, later]
        assert capture.fully_committed
        assert capture.pending_unfinalized_stores() == 0

    def test_has_unfinalized_before(self):
        capture, _, _ = make_capture()
        older = capture.begin_record(store(0x100, R0))
        capture.enqueue(older, finalized=False)
        mark = capture.insert_ca_record(
            1, HLEventKind.FREE, RecordKind.HL_BEGIN, (), 1)
        newer = capture.begin_record(store(0x140, R0))
        capture.enqueue(newer, finalized=False)
        assert capture.has_unfinalized_before(mark)
        assert not capture.has_unfinalized_before(older)
        capture.finalize_store(older, [])
        # Only a store *after* the mark is still waiting.
        assert not capture.has_unfinalized_before(mark)
        assert capture.has_unfinalized_before(object())  # not pending

    def test_pending_unfinalized_stores_counts_waiting_stores(self):
        capture, _, _ = make_capture()
        assert capture.pending_unfinalized_stores() == 0
        stores = [capture.begin_record(store(0x100 + 64 * i, R0))
                  for i in range(3)]
        for record in stores:
            capture.enqueue(record, finalized=False)
        capture.enqueue(capture.begin_record(load(R0, 0x400)))
        assert capture.pending_unfinalized_stores() == 3
        capture.finalize_store(stores[1], [])
        assert capture.pending_unfinalized_stores() == 2

    def test_finalizing_a_record_that_is_not_pending_raises(self):
        capture, _, _ = make_capture()
        record = capture.begin_record(store(0x100, R0))
        capture.enqueue(record, finalized=False)
        capture.finalize_store(record, [])
        assert capture.flush() and capture.fully_committed
        with pytest.raises(AssertionError, match="not pending"):
            capture.finalize_store(record, [])
        never_queued = capture.begin_record(store(0x140, R0))
        with pytest.raises(AssertionError, match="not pending"):
            capture.finalize_store(never_queued, [])
