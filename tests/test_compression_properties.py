"""Property-based tests (hypothesis) for the record codec.

The codec's contract is ``decode(encode(stream)) == stream`` over the
*full* extras vocabulary — arcs under every codec, high-level payloads,
TSO version annotations, CA marks, critical-section tags — with
adversarial numeric values: varint byte-count boundaries (127/128,
16383/16384, ...), negative zigzag deltas from descending addresses,
and address walks that straddle shadow-chunk boundaries. A second
property pins encoded-size monotonicity: appending a record never
shrinks (or leaves unchanged) the encoded stream. Two more pin the
in-place decoder: ``decode(data, offset)`` yields the same records and
end offsets as decoding slice by slice, and a truncated stream reports
the cut record's absolute stream offset. A last one flips random
bytes: a corrupt stream decodes or raises TraceFormatError naming the
failing record and the offset where it begins, never another error.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.compression import (
    ARC_CODECS,
    RecordDecoder,
    RecordEncoder,
    decode_stream,
    encode_stream,
)
from repro.capture.events import Record, RecordKind
from repro.common.errors import TraceFormatError
from repro.isa.instructions import HLEventKind

#: Values straddling every varint byte-count boundary the codec can hit,
#: plus shadow-chunk-boundary addresses (the metadata map uses 4 KiB
#: chunks, so deltas that cross 0x1000 multiples are the interesting
#: address pattern).
VARINT_BOUNDARIES = [0, 1, 126, 127, 128, 129, 16_382, 16_383, 16_384,
                     2_097_151, 2_097_152, 2 ** 31 - 1, 2 ** 31,
                     2 ** 48 - 1, 2 ** 48]
CHUNK_EDGES = [base + offset
               for base in (0x1000, 0x10_0000, 0x4000_0000)
               for offset in (-4, -1, 0, 1, 4)]

addresses = st.one_of(
    st.sampled_from(VARINT_BOUNDARIES),
    st.sampled_from(CHUNK_EDGES),
    st.integers(min_value=0, max_value=2 ** 48),
)
sizes = st.sampled_from([1, 2, 4, 8])
small_regs = st.integers(min_value=0, max_value=15)
varints = st.one_of(st.sampled_from(VARINT_BOUNDARIES),
                    st.integers(min_value=0, max_value=2 ** 48))
ranges = st.lists(st.tuples(varints, varints), max_size=3)

MEMORY_KINDS = (RecordKind.LOAD, RecordKind.STORE, RecordKind.RMW)
PLAIN_KINDS = (RecordKind.NOP, RecordKind.HL_BEGIN, RecordKind.HL_END,
               RecordKind.THREAD_EXIT)


@st.composite
def records(draw):
    """One codec-representable record (rid patched to its stream slot)."""
    kind = draw(st.sampled_from(MEMORY_KINDS + PLAIN_KINDS + (
        RecordKind.MOVRR, RecordKind.ALU, RecordKind.LOADI,
        RecordKind.CRITICAL_USE, RecordKind.CA_MARK)))
    record = Record(0, 1, kind)
    if kind in MEMORY_KINDS:
        record.addr = draw(addresses)
        record.size = draw(sizes)
        if kind == RecordKind.STORE:
            record.rs1 = draw(small_regs)
        else:
            record.rd = draw(small_regs)
    elif kind in (RecordKind.MOVRR, RecordKind.ALU):
        record.rd = draw(small_regs)
        record.rs1 = draw(small_regs)
        if kind == RecordKind.ALU:
            record.rs2 = draw(st.none()
                              | st.integers(min_value=0, max_value=14))
    elif kind == RecordKind.LOADI:
        record.rd = draw(small_regs)
    elif kind == RecordKind.CRITICAL_USE:
        record.rs1 = draw(small_regs)
    # The full extras vocabulary, each section independently optional.
    for src_tid, src_rid in draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=63), varints),
            max_size=3)):
        record.add_arc(src_tid, src_rid)
    if draw(st.booleans()):
        record.hl_kind = draw(st.sampled_from(list(HLEventKind)))
        record.ranges = tuple(draw(ranges))
    if draw(st.booleans()):
        record.consume_version = draw(st.tuples(varints, varints, varints))
    produced = draw(st.lists(st.tuples(varints, varints, varints),
                             max_size=3))
    if produced:
        record.produce_versions = produced
    record.critical_kind = draw(
        st.none() | st.text(st.characters(codec="utf-8"), max_size=8))
    if kind == RecordKind.CA_MARK or draw(st.booleans()):
        record.ca_id = draw(st.integers(min_value=1, max_value=2 ** 32))
        record.ca_issuer = draw(st.booleans())
    return record


streams = st.lists(records(), max_size=12)


def _with_stream_rids(stream):
    for rid, record in enumerate(stream, start=1):
        record.rid = rid
    return stream


def _fields(record):
    return (record.tid, record.rid, record.kind, record.addr, record.size,
            record.rd, record.rs1, record.rs2, record.hl_kind,
            tuple(record.ranges), record.critical_kind,
            tuple(record.arcs or ()), record.ca_id, record.ca_issuer,
            record.consume_version, tuple(record.produce_versions or ()))


@settings(max_examples=150, deadline=None)
@given(stream=streams, codec=st.sampled_from(ARC_CODECS))
def test_roundtrip_over_full_vocabulary(stream, codec):
    stream = _with_stream_rids(stream)
    decoded = decode_stream(encode_stream(stream, arc_codec=codec), 0,
                            arc_codec=codec)
    assert [_fields(r) for r in stream] == [_fields(r) for r in decoded]


def _slice_and_consume(data, codec):
    """The reference loop: decode each record from a fresh slice of the
    remaining bytes (``offset=0``) and advance by the bytes consumed."""
    decoder = RecordDecoder(0, arc_codec=codec)
    records, ends, offset = [], [], 0
    while offset < len(data):
        record, consumed = decoder.decode(data[offset:])
        offset += consumed
        records.append(record)
        ends.append(offset)
    return records, ends


@settings(max_examples=150, deadline=None)
@given(stream=streams, codec=st.sampled_from(ARC_CODECS))
def test_offset_decoding_matches_slice_and_consume(stream, codec):
    data = encode_stream(_with_stream_rids(stream), arc_codec=codec)
    expected, expected_ends = _slice_and_consume(data, codec)
    decoder = RecordDecoder(0, arc_codec=codec)
    records, ends, offset = [], [], 0
    while offset < len(data):
        record, offset = decoder.decode(data, offset)
        records.append(record)
        ends.append(offset)
    assert ends == expected_ends
    assert [_fields(r) for r in records] == [_fields(r) for r in expected]


@settings(max_examples=150, deadline=None)
@given(stream=st.lists(records(), min_size=1, max_size=12),
       codec=st.sampled_from(ARC_CODECS), data=st.data())
def test_truncation_reports_absolute_stream_offset(stream, codec, data):
    encoder = RecordEncoder(arc_codec=codec)
    chunks = [encoder.encode(r) for r in _with_stream_rids(stream)]
    blob = b"".join(chunks)
    starts = [sum(len(c) for c in chunks[:i]) for i in range(len(chunks))]
    cut = data.draw(st.integers(min_value=1, max_value=len(blob) - 1)
                    if len(blob) > 1 else st.just(1))
    cut_index = max(i for i, start in enumerate(starts) if start < cut)
    if starts[cut_index] + len(chunks[cut_index]) == cut:
        # A cut on a record boundary is a shorter valid stream.
        assert len(decode_stream(blob[:cut], 0, arc_codec=codec)) \
            == cut_index + 1
        return
    start = starts[cut_index]
    with pytest.raises(TraceFormatError) as info:
        decode_stream(blob[:cut], 0, arc_codec=codec)
    message = str(info.value)
    assert message.startswith(
        f"record #{cut_index + 1} at stream offset {start}: ")
    # Offsets inside the message are stream offsets too: none points
    # before the cut record or past the cut.
    offsets = [int(v) for v in re.findall(r"offset (\d+)", message)]
    assert all(start <= value <= cut for value in offsets), message


@settings(max_examples=200, deadline=None)
@given(stream=st.lists(records(), min_size=1, max_size=12),
       codec=st.sampled_from(ARC_CODECS), data=st.data())
def test_flipped_bytes_decode_or_fail_naming_the_record(stream, codec,
                                                        data):
    blob = bytearray(encode_stream(_with_stream_rids(stream),
                                   arc_codec=codec))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(blob) - 1))
        blob[position] ^= data.draw(st.integers(min_value=1, max_value=255))
    blob = bytes(blob)
    try:
        decode_stream(blob, 0, arc_codec=codec)
    except TraceFormatError as exc:
        match = re.match(r"(?:corrupt )?record #(\d+) at stream offset "
                         r"(\d+): ", str(exc))
        assert match, str(exc)
        number, start = int(match.group(1)), int(match.group(2))
        # The named offset is where record #number begins: the bytes
        # before it decode to exactly the records before it.
        assert len(decode_stream(blob[:start], 0, arc_codec=codec)) \
            == number - 1
    # Any other exception (IndexError, ValueError, KeyError, ...)
    # escapes and fails the test.


@settings(max_examples=100, deadline=None)
@given(stream=streams, codec=st.sampled_from(ARC_CODECS))
def test_encoded_size_is_strictly_monotone(stream, codec):
    stream = _with_stream_rids(stream)
    encoder = RecordEncoder(arc_codec=codec)
    previous = 0
    for record in stream:
        encoder.encode(record)
        assert encoder.bytes > previous
        previous = encoder.bytes


@settings(max_examples=100, deadline=None)
@given(deltas=st.lists(st.sampled_from(
    [d for b in VARINT_BOUNDARIES for d in (b, -b)]), max_size=10))
def test_descending_and_boundary_address_deltas(deltas):
    # A load walk whose deltas hit every zigzag/varint boundary in both
    # directions (descending addresses produce negative deltas).
    addr, stream = 2 ** 50, []
    for rid, delta in enumerate(deltas, start=1):
        addr = max(0, addr + delta)
        record = Record(0, rid, RecordKind.LOAD)
        record.addr = addr
        record.size = 4
        record.rd = rid % 16
        stream.append(record)
    decoded = decode_stream(encode_stream(stream), 0)
    assert [r.addr for r in decoded] == [r.addr for r in stream]
    assert [_fields(r) for r in decoded] == [_fields(r) for r in stream]
