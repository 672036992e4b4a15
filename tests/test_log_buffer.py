"""Unit tests for the event-log buffer and record sizing."""

import pytest

from repro.capture.compression import RecordEncoder
from repro.capture.events import Record, RecordKind, record_size_bytes
from repro.capture.log_buffer import LogBuffer
from repro.common.config import LogBufferConfig
from repro.cpu.engine import Engine
from repro.isa.instructions import load
from repro.isa.registers import R0, R1


def make_record(rid=1, kind=RecordKind.LOAD, arcs=0):
    record = Record(0, rid, kind)
    for index in range(arcs):
        record.add_arc(1, index + 1)
    return record


class TestRecordSizes:
    def test_plain_record_is_one_byte(self):
        assert record_size_bytes(make_record()) == 1

    def test_each_arc_adds_four_bytes(self):
        assert record_size_bytes(make_record(arcs=2)) == 9

    def test_highlevel_records_are_bigger(self):
        assert record_size_bytes(make_record(kind=RecordKind.HL_BEGIN)) == 16
        assert record_size_bytes(make_record(kind=RecordKind.CA_MARK)) == 16

    def test_version_annotations_add_bytes(self):
        record = make_record()
        record.consume_version = (1, 0x100, 64)
        assert record_size_bytes(record) == 9
        record.produce_versions = [(2, 0x100, 64)]
        assert record_size_bytes(record) == 17


class TestLogBuffer:
    def make_log(self, size_bytes=8):
        engine = Engine()
        return engine, LogBuffer(
            engine, LogBufferConfig(size_bytes=size_bytes), "log")

    def test_fifo_order(self):
        _, log = self.make_log()
        first, second = make_record(1), make_record(2)
        assert log.try_append(first)
        assert log.try_append(second)
        assert log.pop() is first
        assert log.pop() is second

    def test_append_fails_when_full(self):
        _, log = self.make_log(size_bytes=2)
        assert log.try_append(make_record(1))
        assert log.try_append(make_record(2))
        assert not log.try_append(make_record(3))
        assert len(log) == 2

    def test_pop_frees_space(self):
        _, log = self.make_log(size_bytes=1)
        log.try_append(make_record(1))
        assert not log.try_append(make_record(2))
        log.pop()
        assert log.try_append(make_record(2))

    def test_occupancy_counts_bytes_not_records(self):
        _, log = self.make_log(size_bytes=32)
        log.try_append(make_record(1, kind=RecordKind.HL_BEGIN))  # 16 bytes
        assert log.occupied_bytes == 16
        assert not log.try_append(make_record(2, arcs=4))  # 17 bytes

    def test_peek_does_not_consume(self):
        _, log = self.make_log()
        record = make_record(1)
        log.try_append(record)
        assert log.peek() is record
        assert len(log) == 1

    def test_peek_empty_returns_none(self):
        _, log = self.make_log()
        assert log.peek() is None

    def test_close_and_drained(self):
        _, log = self.make_log()
        log.try_append(make_record(1))
        log.close()
        assert log.closed and not log.drained
        log.pop()
        assert log.drained

    def test_statistics(self):
        _, log = self.make_log(size_bytes=64)
        log.try_append(make_record(1))
        log.try_append(make_record(2, arcs=1))
        assert log.total_records == 2
        assert log.total_bytes == 6
        assert log.peak_bytes == 6
        log.pop()
        assert log.peak_bytes == 6  # peak is sticky

    def test_append_notifies_not_empty_waiters(self):
        engine, log = self.make_log()
        fired = []
        class FakeActor:
            def wake(self):
                fired.append(True)
        log.not_empty.add_waiter(FakeActor())
        log.try_append(make_record(1))
        engine.run()
        assert fired

    def test_pop_notifies_not_full_waiters(self):
        engine, log = self.make_log(size_bytes=1)
        log.try_append(make_record(1))
        fired = []
        class FakeActor:
            def wake(self):
                fired.append(True)
        log.not_full.add_waiter(FakeActor())
        log.pop()
        engine.run()
        assert fired


def encoder_state(encoder):
    return (encoder.records, encoder.bytes, encoder.arcs, encoder.arc_bytes,
            encoder._last_addr, encoder._last_recv)


class TestCodecLog:
    """With ``use_codec=True`` records are really encoded; a record that
    does not fit must leave the encoder exactly as it was."""

    def test_rejected_record_with_arcs_leaves_encoder_untouched(self):
        log = LogBuffer(Engine(), LogBufferConfig(size_bytes=8,
                                                  use_codec=True), "log")
        first = Record.from_op(0, 1, load(R0, 0x100))
        assert log.try_append(first)
        rejected = Record.from_op(0, 2, load(R1, 0x4000))
        for src_rid in (10, 20, 30, 40):
            rejected.add_arc(1, src_rid)
        assert not log.try_append(rejected)
        assert len(log) == 1 and log.total_records == 1

        reference = RecordEncoder()
        reference.encode(first)
        assert encoder_state(log._encoder) == encoder_state(reference)
        follower = Record.from_op(0, 2, load(R1, 0x104))
        follower.add_arc(1, 5)
        assert log._encoder.encode(follower) == reference.encode(follower)

    def test_snapshot_restore_covers_every_delta_context(self):
        def arc_record(rid, addr, src_rid):
            record = Record.from_op(0, rid, load(R0, addr))
            record.add_arc(1, src_rid)
            return record

        encoder = RecordEncoder(arc_codec="last_recv")
        reference = RecordEncoder(arc_codec="last_recv")
        for target in (encoder, reference):
            target.encode(arc_record(1, 0x100, 3))
        saved = encoder.snapshot()
        encoder.encode(arc_record(2, 0x900, 7))
        assert encoder_state(encoder) != encoder_state(reference)
        encoder.restore(saved)
        assert encoder_state(encoder) == encoder_state(reference)
        probe = arc_record(2, 0x104, 9)
        assert encoder.encode(probe) == reference.encode(probe)
