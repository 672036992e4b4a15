"""Tests for the byte-level record codec, including lossless roundtrips
over real benchmark traces."""

import pytest

from repro import SimulationConfig, TaintCheck, build_workload, \
    run_parallel_monitoring
from repro.capture.compression import (
    RecordEncoder,
    decode_stream,
    encode_stream,
    measure_stream,
    naive_arc_cost,
)
from repro.capture.events import Record, RecordKind, RecordSource
from repro.common.errors import TraceFormatError
from repro.isa.instructions import HLEventKind, alu, hl_end, load, loadi, \
    movrr, store
from repro.isa.registers import R0, R1, R2


#: Thread count of every decoded stream: above each arc's source tid.
NTHREADS = 4

def stream(ops, tid=0):
    source = RecordSource(tid, {tid: 0})
    return [source.begin_record(op) for op in ops]


def fields(record):
    return (record.tid, record.rid, record.kind, record.addr, record.size,
            record.rd, record.rs1, record.rs2, record.hl_kind,
            tuple(record.ranges), record.critical_kind,
            tuple(record.arcs or ()), record.ca_id, record.ca_issuer,
            record.consume_version, tuple(record.produce_versions or ()))


def assert_roundtrip(records, tid=0):
    decoded = decode_stream(encode_stream(records), tid, NTHREADS)
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        assert fields(original) == fields(copy)


class TestRoundtrip:
    def test_plain_instruction_mix(self):
        assert_roundtrip(stream([
            load(R0, 0x1000), movrr(R1, R0), alu(R2, R0, R1), alu(R2, R2),
            loadi(R0), store(0x1004, R2), load(R1, 0x2000, 8),
        ]))

    def test_arcs_roundtrip(self):
        records = stream([load(R0, 0x1000), store(0x1000, R0)])
        records[0].add_arc(3, 17)
        records[1].add_arc(1, 2)
        records[1].add_arc(2, 1)
        assert_roundtrip(records)

    def test_highlevel_roundtrip(self):
        records = stream([
            hl_end(HLEventKind.MALLOC, ranges=[(0x4000_0000, 128)]),
            hl_end(HLEventKind.SYSCALL_READ,
                   ranges=[(0x1000, 16), (0x2000, 4)]),
        ])
        records[0].ca_id = 9
        records[0].ca_issuer = True
        assert_roundtrip(records)

    def test_ca_mark_roundtrip(self):
        record = Record(2, 1, RecordKind.CA_MARK)
        record.hl_kind = HLEventKind.FREE
        record.ranges = ((0x4000_0000, 64),)
        record.ca_id = 7
        record.critical_kind = "begin"
        assert_roundtrip([record], tid=2)

    def test_version_annotations_roundtrip(self):
        records = stream([load(R0, 0x1000), store(0x1040, R0)])
        records[0].consume_version = (5, 0x1000, 64)
        records[1].produce_versions = [(6, 0x1040, 64), (7, 0x1080, 64)]
        assert_roundtrip(records)

    def test_benchmark_traces_roundtrip(self):
        result = run_parallel_monitoring(
            build_workload("swaptions", 2), TaintCheck,
            SimulationConfig.for_threads(2), keep_trace=True)
        for tid in (0, 1):
            records = [r for r in result.trace if r.tid == tid]
            assert_roundtrip(records, tid=tid)


class TestCompression:
    def test_sequential_loads_cost_three_bytes(self):
        # header + 1-byte address delta + register byte
        records = stream([load(R0, 0x1000 + 4 * i) for i in range(100)])
        _count, _bytes, average = measure_stream(records)
        assert average <= 3.05  # the stream's first delta costs extra

    def test_register_ops_cost_about_two_bytes(self):
        records = stream([alu(R0, R1, R2) for _ in range(100)])
        _count, _bytes, average = measure_stream(records)
        assert average <= 3.0

    def test_benchmark_trace_average_is_small(self):
        """The paper assumes ~1B/record with hardware compression; our
        simpler codec lands within a few bytes on real traces."""
        result = run_parallel_monitoring(
            build_workload("lu", 2), TaintCheck,
            SimulationConfig.for_threads(2), keep_trace=True)
        records = [r for r in result.trace if r.tid == 0]
        _count, _bytes, average = measure_stream(records)
        assert average < 4.0

    def test_encoder_statistics(self):
        encoder = RecordEncoder()
        encoder.encode(stream([loadi(R0)])[0])
        assert encoder.records == 1
        assert encoder.bytes >= 1
        assert encoder.average_bytes_per_record == encoder.bytes


class TestArcCodecs:
    def arc_stream(self):
        records = stream([load(R0, 0x1000 + 4 * i) for i in range(6)])
        records[1].add_arc(1, 3)
        records[2].add_arc(1, 4)
        records[3].add_arc(2, 1)
        records[5].add_arc(1, 9)
        return records

    def test_interleaved_sources_roundtrip(self):
        records = self.arc_stream()
        decoded = decode_stream(encode_stream(records), 0, NTHREADS)
        assert [fields(r) for r in records] == [fields(r) for r in decoded]

    def test_last_recv_beats_absolute_on_monotone_arcs(self):
        # Post-reduction arcs from one source are a monotone RID
        # sequence, so last_recv deltas stay tiny where the naive
        # baseline pays full-RID varints.
        records = stream([load(R0, 0x1000 + 4 * i) for i in range(40)])
        for index, record in enumerate(records):
            record.add_arc(1, 500 + index)
        encoder = RecordEncoder()
        for record in records:
            encoder.encode(record)
        naive_arcs, naive_bytes = naive_arc_cost(records)
        assert encoder.arcs == naive_arcs == 40
        assert encoder.arc_bytes < naive_bytes

    def test_naive_price_counts_reduced_arcs_at_full_width(self):
        # Tag 1 + count 1 + (tid 1 + rid 200: 2) + (tid 1 + rid 3: 1).
        record = stream([load(R0, 0x1000)])[0]
        record.add_arc(1, 200)
        record.add_reduced_arc(2, 3)
        bare = stream([loadi(R0)])[0]
        assert naive_arc_cost([record, bare]) == (2, 7)
        assert naive_arc_cost([bare]) == (0, 0)


class TestRobustness:
    """The bugfix satellite: empty streams and truncated input."""

    def test_empty_stream_measures_zero(self):
        assert measure_stream([]) == (0, 0, 0.0)

    def test_empty_encoder_average_is_zero(self):
        assert RecordEncoder().average_bytes_per_record == 0.0

    def test_empty_stream_decodes_empty(self):
        assert decode_stream(b"", 0, NTHREADS) == []

    def test_mid_record_truncation_raises_format_error(self):
        records = stream([load(R0, 0x1000), store(0x2000, R0)])
        records[1].add_arc(1, 7)
        blob = encode_stream(records)
        # Cut one byte off the tail: mid-extras, never a boundary.
        with pytest.raises(TraceFormatError, match="offset"):
            decode_stream(blob[:-1], 0, NTHREADS)

    def test_every_truncation_point_fails_cleanly(self):
        # A cut can land on a record boundary (shorter valid stream) or
        # mid-record (TraceFormatError) — but never escapes as the
        # IndexError the codec used to leak.
        records = stream([load(R0, 0x1000), store(0x2000, R0),
                          alu(R2, R0, R1)])
        records[1].add_arc(1, 7)
        records[2].critical_kind = "begin"
        blob = encode_stream(records)
        for cut in range(1, len(blob)):
            try:
                decoded = decode_stream(blob[:cut], 0, NTHREADS)
            except TraceFormatError:
                continue
            assert len(decoded) < len(records)

    def test_truncated_varint_raises_format_error(self):
        # A header byte promising a delta-encoded address, then a
        # varint whose continuation bit points past the end.
        with pytest.raises(TraceFormatError, match="truncated"):
            decode_stream(bytes([0x81, 0x80]), 0, NTHREADS)

    def test_overlong_varint_raises_format_error(self):
        blob = bytes([0x81]) + b"\x80" * 12 + b"\x01"
        with pytest.raises(TraceFormatError, match="varint"):
            decode_stream(blob, 0, NTHREADS)

    def test_truncated_extras_block_raises_format_error(self):
        records = stream([load(R0, 0x1000)])
        records[0].add_arc(1, 1)
        blob = encode_stream(records)
        with pytest.raises(TraceFormatError, match="record #1"):
            decode_stream(blob[:-1], 0, NTHREADS)

    def test_unknown_extras_tag_raises_format_error(self):
        records = stream([loadi(R0)])
        blob = bytearray(encode_stream(records))
        # Graft a one-byte extras block holding an unassigned tag.
        blob[0] |= 0x40  # set the has-extras flag
        blob.extend([1, 99])
        with pytest.raises(TraceFormatError, match="unknown extras tag"):
            decode_stream(bytes(blob), 0, NTHREADS)
