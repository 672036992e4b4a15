"""Byte-level event-record codec.

The paper relies on LBA's result that compression brings the average
event record under one byte; the log-occupancy *model* in
:mod:`repro.capture.events` simply charges that budget. This module is
the real thing: a lossless encoder/decoder for record streams, so the
claim can be measured on our own traces (``benchmarks/bench_compression.py``).

The format mirrors the structure hardware compressors exploit:

* one header byte per record — 4 bits of record kind, a 2-bit size code
  and two flags (has-extras, address-is-delta-encoded);
* memory addresses are delta-encoded against the thread's previous
  access and zigzag-varint packed, so strided streams cost one address
  byte (a sequential stream of loads costs 3 bytes per record: header +
  delta + register);
* register fields pack into one byte (two 4-bit indices);
* arcs, high-level payloads and version annotations ride in an extras
  block, each a varint sequence.

Dependence arcs support three codecs (:data:`ARC_CODECS`), selected per
encoder/decoder pair and recorded in archive manifests:

* ``rid_delta`` (default, the original format) — each arc stores the
  source thread id and the zigzag delta against the *consuming*
  record's own RID;
* ``last_recv`` — the transitive-reduction-aware codec: the delta is
  taken against the stream's last-received RID *from that source
  thread* (the same per-source vector RTR reduces against), so the arcs
  that survive reduction form a monotone sequence of tiny deltas;
* ``absolute`` — the naive full-arc encoding (source thread id and the
  full source RID), the baseline the compression claims are measured
  against.

Decoding reconstructs records exactly (asserted by roundtrip tests), so
the measured byte counts are honest. Truncated or corrupt input raises
:class:`~repro.common.errors.TraceFormatError` rather than an
``IndexError`` from deep inside the bit-twiddling.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.capture.events import Record, RecordKind
from repro.common.errors import SimulationError, TraceFormatError
from repro.isa.instructions import HLEventKind

_SIZE_CODES = {1: 0, 2: 1, 4: 2, 8: 3}
#: Header size code -> access size (the inverse of ``_SIZE_CODES``).
_SIZE_FROM_CODE = tuple(sorted(_SIZE_CODES, key=_SIZE_CODES.get))

_RECORD_KINDS = {int(kind): kind for kind in RecordKind}
_HL_KINDS = {int(kind): kind for kind in HLEventKind}

#: Header kind bits -> record kind. ``0x0F`` escapes kinds >= 16 (the
#: real kind rides in the CA extras section); None marks bit patterns
#: no encoder writes.
_KIND_FROM_BITS = tuple(
    RecordKind.CA_MARK if bits == 0x0F else _RECORD_KINDS.get(bits)
    for bits in range(16))

_STORE = RecordKind.STORE
_MOVRR = RecordKind.MOVRR
_ALU = RecordKind.ALU
_LOADI = RecordKind.LOADI
_CRITICAL_USE = RecordKind.CRITICAL_USE

#: Supported dependence-arc codecs (see the module docstring).
ARC_CODECS = ("rid_delta", "last_recv", "absolute")

#: A varint longer than this many payload bits is corrupt, not data:
#: every value the codec writes fits comfortably in 64 bits of zigzag.
_MAX_VARINT_SHIFT = 70

_FLAG_EXTRAS = 0x40
_FLAG_DELTA = 0x80

# Extras tags
_X_ARCS = 1
_X_HL = 2
_X_CONSUME = 3
_X_PRODUCE = 4
_X_CRITICAL = 5
_X_CA = 6


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SimulationError("varints are unsigned; zigzag first")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _truncated(offset: int, length: int):
    raise TraceFormatError(
        f"truncated record stream: need a byte at offset {offset}, "
        f"have {length}")


def _read_byte(data: bytes, offset: int) -> Tuple[int, int]:
    if offset >= len(data):
        _truncated(offset, len(data))
    return data[offset], offset + 1


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise TraceFormatError(
                f"truncated varint at offset {offset} "
                f"(stream ends mid-value)")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > _MAX_VARINT_SHIFT:
            raise TraceFormatError(
                f"malformed varint at offset {offset}: more than "
                f"{_MAX_VARINT_SHIFT} payload bits")


class RecordEncoder:
    """Stateful per-thread encoder (keeps the address-delta context).

    ``arc_codec`` selects the dependence-arc encoding (one of
    :data:`ARC_CODECS`); ``include_reduced_arcs=True`` additionally
    encodes any :attr:`~repro.capture.events.Record.reduced_arcs` the
    capture retained, reconstructing the naive pre-reduction arc set —
    the honest baseline for compression-ratio measurements.
    """

    def __init__(self, arc_codec: str = "rid_delta",
                 include_reduced_arcs: bool = False):
        if arc_codec not in ARC_CODECS:
            raise SimulationError(
                f"unknown arc codec {arc_codec!r}; valid: {ARC_CODECS}")
        self.arc_codec = arc_codec
        self.include_reduced_arcs = include_reduced_arcs
        self._last_addr = 0
        self._last_recv = {}
        self.records = 0
        self.bytes = 0
        #: Bytes spent on the arcs extras section (tag + count + arcs).
        self.arc_bytes = 0
        #: Dependence arcs encoded.
        self.arcs = 0

    def snapshot(self) -> tuple:
        """Everything :meth:`encode` advances: the delta contexts and the
        statistics. :meth:`restore` rolls the encoder back to it."""
        return (self._last_addr, dict(self._last_recv), self.records,
                self.bytes, self.arc_bytes, self.arcs)

    def restore(self, state: tuple) -> None:
        """Undo every :meth:`encode` since ``state`` was snapshotted."""
        (self._last_addr, last_recv, self.records, self.bytes,
         self.arc_bytes, self.arcs) = state
        self._last_recv = dict(last_recv)

    def encode(self, record: Record) -> bytes:
        out = bytearray()
        kind = int(record.kind)
        if not 0 < kind < 32:
            raise SimulationError(f"unencodable record kind {record.kind}")
        size_code = _SIZE_CODES.get(record.size or 4, 2)
        header_index = len(out)
        out.append(0)  # patched below

        header = (kind & 0x0F) | (size_code << 4)
        if kind >= 16:  # CA_MARK: kind 20 -> stash high bit in extras
            header = (0x0F) | (size_code << 4)

        if record.is_memory:
            delta = record.addr - self._last_addr
            header |= _FLAG_DELTA
            _write_varint(out, _zigzag(delta))
            self._last_addr = record.addr
            # One register per memory op: rd for loads/RMW, rs1 for stores.
            reg = record.rs1 if record.kind == RecordKind.STORE else record.rd
            out.append((reg or 0) & 0x0F)
        elif record.kind in (RecordKind.MOVRR, RecordKind.ALU):
            out.append(((record.rd or 0) & 0x0F)
                       | (((record.rs1 or 0) & 0x0F) << 4))
            if record.kind == RecordKind.ALU:
                out.append(0xFF if record.rs2 is None
                           else (record.rs2 & 0x0F))
        elif record.kind == RecordKind.LOADI:
            out.append((record.rd or 0) & 0x0F)
        elif record.kind == RecordKind.CRITICAL_USE:
            out.append((record.rs1 or 0) & 0x0F)

        extras = self._encode_extras(record)
        if extras:
            header |= _FLAG_EXTRAS
            _write_varint(out, len(extras))
            out.extend(extras)
        out[header_index] = header

        encoded = bytes(out)
        self.records += 1
        self.bytes += len(encoded)
        return encoded

    def _encode_extras(self, record: Record) -> bytes:
        extras = bytearray()
        if int(record.kind) >= 16 or record.ca_id is not None:
            extras.append(_X_CA)
            _write_varint(extras, int(record.kind))
            _write_varint(extras, record.ca_id or 0)
            extras.append(1 if record.ca_issuer else 0)
        arcs = list(record.arcs or ())
        if self.include_reduced_arcs and record.reduced_arcs:
            arcs.extend(record.reduced_arcs)
        if arcs:
            extras.append(_X_ARCS)
            section_start = len(extras) - 1
            _write_varint(extras, len(arcs))
            for src_tid, src_rid in arcs:
                _write_varint(extras, src_tid)
                if self.arc_codec == "rid_delta":
                    _write_varint(extras, _zigzag(record.rid - src_rid))
                elif self.arc_codec == "last_recv":
                    previous = self._last_recv.get(src_tid, 0)
                    _write_varint(extras, _zigzag(src_rid - previous))
                    self._last_recv[src_tid] = src_rid
                else:  # absolute: the naive full-arc baseline
                    _write_varint(extras, src_rid)
            self.arc_bytes += len(extras) - section_start
            self.arcs += len(arcs)
        if record.hl_kind is not None or record.ranges:
            extras.append(_X_HL)
            _write_varint(extras, int(record.hl_kind) if record.hl_kind else 0)
            _write_varint(extras, len(record.ranges))
            for start, length in record.ranges:
                _write_varint(extras, start)
                _write_varint(extras, length)
        if record.consume_version is not None:
            extras.append(_X_CONSUME)
            version_id, base, length = record.consume_version
            for value in (version_id, base, length):
                _write_varint(extras, value)
        if record.produce_versions:
            extras.append(_X_PRODUCE)
            _write_varint(extras, len(record.produce_versions))
            for version_id, base, length in record.produce_versions:
                for value in (version_id, base, length):
                    _write_varint(extras, value)
        if record.critical_kind is not None:
            payload = record.critical_kind.encode()
            extras.append(_X_CRITICAL)
            _write_varint(extras, len(payload))
            extras.extend(payload)
        return bytes(extras)

    @property
    def average_bytes_per_record(self) -> float:
        """Mean encoded size; 0.0 for an empty stream (no division)."""
        return self.bytes / self.records if self.records else 0.0


class RecordDecoder:
    """Inverse of :class:`RecordEncoder` for one thread's stream.

    ``arc_codec`` must match the encoder's (archives record theirs in
    the manifest); a mismatch decodes to silently wrong arcs, which is
    why the archive reader treats an unknown codec as a format error.
    """

    def __init__(self, tid: int, arc_codec: str = "rid_delta"):
        if arc_codec not in ARC_CODECS:
            raise TraceFormatError(
                f"unknown arc codec {arc_codec!r}; valid: {ARC_CODECS}")
        self.tid = tid
        self.arc_codec = arc_codec
        self._last_addr = 0
        self._last_recv = {}
        self._rid = 0
        self._start = 0

    def decode(self, data: bytes, offset: int = 0) -> Tuple[Record, int]:
        """Decode the record starting at ``offset``; returns (record, end).

        ``end`` is the offset just past the record, so a stream decodes
        by feeding each end back in, without slicing ``data``. With the
        default ``offset=0`` it is also the number of bytes consumed.
        Error messages give offsets into ``data`` itself.
        """
        records: List[Record] = []
        # Every record is at least one byte: stop after the first.
        end = self._decode_into(records, data, offset, offset + 1)
        return records[0], end

    def _decode_into(self, records: List[Record], data: bytes, offset: int,
                     stop: int) -> int:
        """The one decode loop: append the records starting at
        ``offset`` and before ``stop`` to ``records``; returns the offset
        just past the last one.

        The delta contexts, the kind table and the size table are held
        in locals. If an error escapes, :attr:`_start` is the offset at
        which the record being decoded began.
        """
        tid = self.tid
        rid = self._rid
        last_addr = self._last_addr
        kinds = _KIND_FROM_BITS
        sizes = _SIZE_FROM_CODE
        new = Record.__new__
        append = records.append
        start = offset
        # Single-byte varints and register bytes are read inline, and
        # ``offset`` moves past a byte only after reading it, so an
        # IndexError names the missing byte. _read_varint takes
        # multi-byte values.
        try:
            while offset < stop:
                start = offset
                header = data[offset]
                kind = kinds[header & 0x0F]
                if kind is None:
                    raise TraceFormatError(
                        f"invalid record kind {header & 0x0F} in header "
                        f"byte {header:#04x} at offset {offset}")
                offset += 1
                rid += 1
                # Every slot is set exactly once here, as in
                # Record.from_op; only an extras block overwrites.
                record = new(Record)
                record.tid = tid
                record.rid = rid
                record.kind = kind
                if header & _FLAG_DELTA:
                    raw = data[offset]
                    if raw < 0x80:
                        offset += 1
                    else:
                        raw, offset = _read_varint(data, offset)
                    last_addr += (raw >> 1) ^ -(raw & 1)  # unzigzag
                    record.addr = last_addr
                    record.size = sizes[(header >> 4) & 0x03]
                    if kind is _STORE:
                        record.rd = None
                        record.rs1 = data[offset] & 0x0F
                    else:
                        record.rd = data[offset] & 0x0F
                        record.rs1 = None
                    record.rs2 = None
                    offset += 1
                else:
                    record.addr = None
                    record.size = None
                    if kind is _MOVRR or kind is _ALU:
                        regs = data[offset]
                        record.rd = regs & 0x0F
                        record.rs1 = (regs >> 4) & 0x0F
                        offset += 1
                        if kind is _ALU:
                            rs2 = data[offset]
                            record.rs2 = None if rs2 == 0xFF else rs2
                            offset += 1
                        else:
                            record.rs2 = None
                    elif kind is _LOADI:
                        record.rd = data[offset] & 0x0F
                        record.rs1 = record.rs2 = None
                        offset += 1
                    elif kind is _CRITICAL_USE:
                        record.rd = record.rs2 = None
                        record.rs1 = data[offset] & 0x0F
                        offset += 1
                    else:
                        record.rd = record.rs1 = record.rs2 = None
                record.hl_kind = None
                record.ranges = ()
                record.critical_kind = None
                record.arcs = None
                record.reduced_arcs = None
                record.ca_id = None
                record.ca_issuer = False
                record.consume_version = None
                record.produce_versions = None
                record.commit_time = None
                if header & _FLAG_EXTRAS:
                    length = data[offset]
                    if length < 0x80:
                        offset += 1
                    else:
                        length, offset = _read_varint(data, offset)
                    end = offset + length
                    if end > len(data):
                        raise TraceFormatError(
                            f"truncated extras block at offset {offset}: "
                            f"{length} bytes declared, "
                            f"{len(data) - offset} available")
                    self._decode_extras(record, data, offset, end)
                    offset = end
                append(record)
        except IndexError:
            _truncated(offset, len(data))
        finally:
            self._rid = rid
            self._last_addr = last_addr
            self._start = start
        return offset

    def _decode_extras(self, record: Record, data: bytes, offset: int,
                       end: int) -> None:
        """Decode the extras block ``data[offset:end]`` into ``record``."""
        while offset < end:
            tag = data[offset]
            offset += 1
            if tag == _X_CA:
                raw_kind, offset = _read_varint(data, offset)
                kind = _RECORD_KINDS.get(raw_kind)
                if kind is None:
                    raise TraceFormatError(
                        f"invalid record kind {raw_kind} in the CA extras "
                        f"section ending at offset {offset}")
                record.kind = kind
                ca_id, offset = _read_varint(data, offset)
                record.ca_id = ca_id or None
                issuer, offset = _read_byte(data, offset)
                record.ca_issuer = bool(issuer)
            elif tag == _X_ARCS:
                count, offset = _read_varint(data, offset)
                for _ in range(count):
                    src_tid, offset = _read_varint(data, offset)
                    raw, offset = _read_varint(data, offset)
                    if self.arc_codec == "rid_delta":
                        src_rid = record.rid - _unzigzag(raw)
                    elif self.arc_codec == "last_recv":
                        src_rid = (self._last_recv.get(src_tid, 0)
                                   + _unzigzag(raw))
                        self._last_recv[src_tid] = src_rid
                    else:  # absolute
                        src_rid = raw
                    record.add_arc(src_tid, src_rid)
            elif tag == _X_HL:
                raw_hl, offset = _read_varint(data, offset)
                if raw_hl:
                    hl_kind = _HL_KINDS.get(raw_hl)
                    if hl_kind is None:
                        raise TraceFormatError(
                            f"invalid high-level event kind {raw_hl} "
                            f"ending at offset {offset}")
                    record.hl_kind = hl_kind
                count, offset = _read_varint(data, offset)
                ranges = []
                for _ in range(count):
                    start, offset = _read_varint(data, offset)
                    length, offset = _read_varint(data, offset)
                    ranges.append((start, length))
                record.ranges = tuple(ranges)
            elif tag == _X_CONSUME:
                version_id, offset = _read_varint(data, offset)
                base, offset = _read_varint(data, offset)
                length, offset = _read_varint(data, offset)
                record.consume_version = (version_id, base, length)
            elif tag == _X_PRODUCE:
                count, offset = _read_varint(data, offset)
                produced = []
                for _ in range(count):
                    version_id, offset = _read_varint(data, offset)
                    base, offset = _read_varint(data, offset)
                    length, offset = _read_varint(data, offset)
                    produced.append((version_id, base, length))
                record.produce_versions = produced
            elif tag == _X_CRITICAL:
                length, offset = _read_varint(data, offset)
                if offset + length > end:
                    raise TraceFormatError(
                        f"truncated critical-kind payload at offset "
                        f"{offset}: {length} bytes declared, "
                        f"{end - offset} available")
                try:
                    record.critical_kind = str(data[offset:offset + length],
                                               "utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceFormatError(
                        f"critical-kind payload at offset {offset} is not "
                        f"UTF-8: {exc}") from None
                offset += length
            else:
                raise TraceFormatError(
                    f"unknown extras tag {tag} at offset {offset - 1}")
        if offset != end:
            raise TraceFormatError(
                f"extras block overruns its declared end at offset {end} "
                f"(decoding reached offset {offset})")


def encode_stream(records: Iterable[Record],
                  arc_codec: str = "rid_delta") -> bytes:
    """Encode one thread's record stream into a single buffer."""
    encoder = RecordEncoder(arc_codec=arc_codec)
    return b"".join(encoder.encode(record) for record in records)


def decode_stream(data: bytes, tid: int,
                  arc_codec: str = "rid_delta") -> List[Record]:
    """Decode a whole encoded stream back into records.

    Any corruption — a stream cut mid-record, an over-long varint, an
    extras block announcing more bytes than remain, an invalid record
    or high-level kind, a critical kind that is not UTF-8 — raises
    :class:`~repro.common.errors.TraceFormatError` naming the record
    number and its absolute stream offset, never a bare ``IndexError``
    or ``ValueError``.
    """
    decoder = RecordDecoder(tid, arc_codec=arc_codec)
    records: List[Record] = []
    try:
        decoder._decode_into(records, data, 0, len(data))
    except TraceFormatError as exc:
        raise TraceFormatError(
            f"record #{len(records) + 1} at stream offset "
            f"{decoder._start}: {exc}") from None
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(
            f"corrupt record #{len(records) + 1} at stream offset "
            f"{decoder._start}: {exc}") from exc
    return records


def measure_stream(records: Iterable[Record],
                   arc_codec: str = "rid_delta") -> Tuple[int, int, float]:
    """(records, bytes, average bytes/record) for one stream.

    An empty stream measures as ``(0, 0, 0.0)`` — never a
    ``ZeroDivisionError``.
    """
    encoder = RecordEncoder(arc_codec=arc_codec)
    for record in records:
        encoder.encode(record)
    return (encoder.records, encoder.bytes,
            encoder.average_bytes_per_record)
