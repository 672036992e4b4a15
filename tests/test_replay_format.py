"""Tests for the persistent trace-archive format (repro.replay.format).

Covers byte-determinism, full-fidelity round trips, every rejection
path (magic, versions, digests, truncation, trailing bytes), and the
transitive-reduction-vs-naive arc accounting: a captured run's reduced
arcs must encode smaller than the naive full-arc baseline.
"""

import hashlib
import json

import pytest

from repro.capture.compression import _X_HL
from repro.capture.events import Record, RecordKind
from repro.common.config import SimulationConfig
from repro.common.errors import TraceFormatError
from repro.isa.instructions import HLEventKind
from repro.lifeguards.oracle import linearize
from repro.replay import (
    ARCHIVE_ARC_CODEC,
    FORMAT_VERSION,
    MAGIC,
    TraceReader,
    canonical_json,
    capture_archive,
    config_digest,
    replay_archive,
    write_archive,
)
from repro.replay.format import _read_varint, _write_varint


def _mem(tid, rid, kind, addr, reg, commit_time):
    record = Record(tid, rid, kind)
    record.addr = addr
    record.size = 4
    if kind == RecordKind.STORE:
        record.rs1 = reg
    else:
        record.rd = reg
    record.commit_time = commit_time
    return record


def synthetic_trace():
    """A small two-thread trace exercising the whole record vocabulary:
    arcs, reduced arcs, a CA mark, TSO versions, critical kinds — with
    deliberately process-flavored (large) commit times."""
    base = 7_001  # as if many runs preceded this one in the process
    t0 = [
        _mem(0, 1, RecordKind.STORE, 0x1000_0000, 1, base + 0),
        _mem(0, 2, RecordKind.LOAD, 0x1000_0004, 2, base + 2),
        _mem(0, 3, RecordKind.STORE, 0x1000_0000, 3, base + 5),
    ]
    t0[1].consume_version = (4, 0x1000_0000, 64)
    t0[2].produce_versions = [(5, 0x1000_0000, 64)]
    t1 = [
        _mem(1, 1, RecordKind.LOAD, 0x1000_0000, 1, base + 1),
        Record(1, 2, RecordKind.CA_MARK),
        _mem(1, 3, RecordKind.LOAD, 0x1000_0000, 2, base + 6),
    ]
    t1[0].add_arc(0, 1)
    t1[1].ca_id = 3
    t1[1].commit_time = base + 4
    t1[1].critical_kind = "begin"
    t1[2].add_arc(0, 3)
    t1[2].add_reduced_arc(0, 1)  # what RTR dropped, for the baseline
    return t0 + t1


def fields(record):
    return (record.tid, record.rid, record.kind, record.addr, record.size,
            record.rd, record.rs1, record.rs2, record.hl_kind,
            tuple(record.ranges), record.critical_kind,
            tuple(record.arcs or ()), record.ca_id, record.ca_issuer,
            record.consume_version, tuple(record.produce_versions or ()))


class TestWriteRead:
    def test_roundtrip_preserves_every_field(self, tmp_path):
        path = tmp_path / "t.plog"
        write_archive(path, synthetic_trace(), nthreads=2)
        reader = TraceReader(path)
        assert reader.tids() == [0, 1]
        by_tid = {0: [], 1: []}
        for record in synthetic_trace():
            by_tid[record.tid].append(record)
        for tid in (0, 1):
            assert ([fields(r) for r in reader.records(tid)]
                    == [fields(r) for r in by_tid[tid]])

    def test_commit_times_rebased_but_order_preserved(self, tmp_path):
        path = tmp_path / "t.plog"
        write_archive(path, synthetic_trace(), nthreads=2)
        reader = TraceReader(path)
        linear = reader.linearized()
        # Rooted at 1, same interleaving as the original +7001 times.
        assert min(r.commit_time for r in linear) == 1
        assert [(r.tid, r.rid) for r in linear] == [
            (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]

    def test_linearized_breaks_commit_time_ties_like_the_oracle(
            self, tmp_path):
        # Ties within and across threads, and per-thread commit times
        # out of rid order (as TSO store drains produce).
        times = {0: [3, 1, 3, 2], 1: [1, 3, 2, 3]}
        trace = [_mem(tid, rid, RecordKind.LOAD, 0x40 * rid, 1, time)
                 for tid, column in times.items()
                 for rid, time in enumerate(column, start=1)]
        path = tmp_path / "ties.plog"
        write_archive(path, trace, nthreads=2)
        reader = TraceReader(path)
        linear = reader.linearized()
        assert linear == linearize(reader.all_records())
        assert [(r.commit_time, r.tid, r.rid) for r in linear] == sorted(
            (time, tid, rid) for tid, column in times.items()
            for rid, time in enumerate(column, start=1))

    def test_archive_bytes_are_process_independent(self, tmp_path):
        # The same captured order, stamped by a process at two different
        # points in its global commit counter, archives byte-identically.
        early, late = synthetic_trace(), synthetic_trace()
        for record in late:
            record.commit_time += 123_456
        write_archive(tmp_path / "a.plog", early, nthreads=2)
        write_archive(tmp_path / "b.plog", late, nthreads=2)
        assert ((tmp_path / "a.plog").read_bytes()
                == (tmp_path / "b.plog").read_bytes())

    def test_manifest_shape(self, tmp_path):
        config = SimulationConfig.for_threads(2)
        manifest = write_archive(tmp_path / "t.plog", synthetic_trace(),
                                 nthreads=2, meta={"seed": 9},
                                 config=config)
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["arc_codec"] == ARCHIVE_ARC_CODEC
        assert manifest["nthreads"] == 2
        assert manifest["meta"] == {"seed": 9}
        assert manifest["config_digest"] == config_digest(config)
        assert {e["tid"] for e in manifest["streams"]} == {0, 1}
        for entry in manifest["streams"]:
            for key in ("records", "record_bytes", "record_sha256",
                        "commit_bytes", "commit_sha256", "arcs",
                        "arc_bytes", "naive_arcs", "naive_arc_bytes"):
                assert key in entry, key
        assert manifest["totals"]["records"] == 6

    def test_empty_trace_roundtrips(self, tmp_path):
        path = tmp_path / "empty.plog"
        manifest = write_archive(path, [], nthreads=2)
        assert manifest["totals"] == {"records": 0, "stream_bytes": 0,
                                      "arc_bytes": 0,
                                      "naive_arc_bytes": 0}
        reader = TraceReader(path)
        assert reader.all_records() == []
        assert reader.bytes_per_instruction() == 0.0

    def test_reduced_arcs_price_the_naive_baseline(self, tmp_path):
        manifest = write_archive(tmp_path / "t.plog", synthetic_trace(),
                                 nthreads=2)
        t1 = next(e for e in manifest["streams"] if e["tid"] == 1)
        assert t1["arcs"] == 2       # what survived reduction
        assert t1["naive_arcs"] == 3  # plus the RTR-dropped arc
        assert t1["naive_arc_bytes"] > t1["arc_bytes"]

    def test_captured_run_tr_encoding_beats_naive(self, tmp_path):
        _result, manifest = capture_archive(tmp_path / "s.plog", 3)
        totals = manifest["totals"]
        assert totals["arc_bytes"] < totals["naive_arc_bytes"]

    def test_missing_commit_time_rejected(self, tmp_path):
        trace = synthetic_trace()
        trace[2].commit_time = None
        with pytest.raises(TraceFormatError, match="commit_time"):
            write_archive(tmp_path / "t.plog", trace, nthreads=2)

    def test_sparse_stream_rejected(self, tmp_path):
        trace = [r for r in synthetic_trace()
                 if not (r.tid == 0 and r.rid == 2)]
        with pytest.raises(TraceFormatError, match="not dense"):
            write_archive(tmp_path / "t.plog", trace, nthreads=2)


def _archive_bytes(tmp_path):
    path = tmp_path / "t.plog"
    write_archive(path, synthetic_trace(), nthreads=2)
    return path, bytearray(path.read_bytes())


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[0] ^= 0xFF
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="bad magic"):
            TraceReader(path)

    def test_future_version_rejected_with_upgrade_hint(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(data)
        with pytest.raises(TraceFormatError,
                           match="newer than the supported"):
            TraceReader(path)

    def test_version_zero_rejected(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[len(MAGIC)] = 0
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="version 0"):
            TraceReader(path)

    def test_corrupt_stream_blob_fails_sha256(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        data[-1] ^= 0x01  # last byte of the last stream blob
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match="sha256"):
            TraceReader(path)

    def test_truncated_archive(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated"):
            TraceReader(path)

    def test_trailing_bytes(self, tmp_path):
        path, data = _archive_bytes(tmp_path)
        path.write_bytes(bytes(data) + b"junk")
        with pytest.raises(TraceFormatError, match="trailing bytes"):
            TraceReader(path)

    def test_header_manifest_version_disagreement(self, tmp_path):
        manifest = {"format_version": FORMAT_VERSION + 1,
                    "arc_codec": ARCHIVE_ARC_CODEC, "nthreads": 0,
                    "streams": [], "totals": {}}
        blob = json.dumps(manifest).encode()
        out = bytearray(MAGIC)
        out.append(FORMAT_VERSION)
        _write_varint(out, len(blob))
        out.extend(blob)
        path = tmp_path / "t.plog"
        path.write_bytes(out)
        with pytest.raises(TraceFormatError, match="header version"):
            TraceReader(path)

    def test_manifest_not_json(self, tmp_path):
        out = bytearray(MAGIC)
        out.append(FORMAT_VERSION)
        _write_varint(out, 4)
        out.extend(b"!!!!")
        path = tmp_path / "t.plog"
        path.write_bytes(out)
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            TraceReader(path)

    def test_unknown_tid_rejected(self, tmp_path):
        path, _data = _archive_bytes(tmp_path)
        with pytest.raises(TraceFormatError, match="no stream for tid"):
            TraceReader(path).records(7)


#: ``rewrite_manifest`` value that removes the field.
DELETE = object()


def rewrite_manifest(path, keys, value):
    """Set the manifest field at ``keys`` (a path of dict keys and list
    indices) of the archive at ``path`` to ``value`` (``DELETE``
    removes it), keeping every stream byte."""
    data = path.read_bytes()
    manifest_len, offset = _read_varint(data, len(MAGIC) + 1)
    manifest = json.loads(data[offset:offset + manifest_len])
    parent = manifest
    for key in keys[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    blob = canonical_json(manifest).encode()
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    _write_varint(out, len(blob))
    out.extend(blob)
    out.extend(data[offset + manifest_len:])
    path.write_bytes(out)
    return path


#: (field path, bad value, text the error must contain). The first five
#: escaped as KeyError/TypeError/AttributeError, or (nthreads "2") were
#: accepted, before the reader checked every field it uses.
MALFORMED_MANIFESTS = [
    pytest.param(("streams", 0, "tid"), DELETE, "streams[0] lacks 'tid'",
                 id="stream-lacks-tid"),
    pytest.param(("streams",), 5, "'streams' must be a list",
                 id="streams-not-a-list"),
    pytest.param(("streams", 0, "record_bytes"), "x",
                 "streams[0].record_bytes must be a non-negative int",
                 id="record-bytes-string"),
    pytest.param(("meta",), [1], "'meta' must be a JSON object",
                 id="meta-not-an-object"),
    pytest.param(("nthreads",), "2", "'nthreads' must be a non-negative int",
                 id="nthreads-string"),
    pytest.param(("streams", 1, "records"), -1,
                 "streams[1].records must be a non-negative int",
                 id="negative-records"),
    pytest.param(("streams", 0, "commit_bytes"), True,
                 "streams[0].commit_bytes must be a non-negative int",
                 id="commit-bytes-bool"),
    pytest.param(("streams", 1, "commit_sha256"), 7,
                 "streams[1].commit_sha256 must be a string",
                 id="sha256-not-a-string"),
    pytest.param(("streams", 1), 3, "streams[1] must be a JSON object",
                 id="stream-not-an-object"),
    pytest.param(("arc_codec",), None, "'arc_codec' must be a string",
                 id="arc-codec-null"),
]


class TestMalformedManifest:
    """Every manifest field the reader uses is checked on open: a bad
    one is a TraceFormatError naming it, never a KeyError, TypeError or
    AttributeError from inside the reader."""

    @pytest.mark.parametrize("keys, value, detail", MALFORMED_MANIFESTS)
    def test_bad_field_is_a_format_error(self, tmp_path, keys, value,
                                         detail):
        path, _data = _archive_bytes(tmp_path)
        rewrite_manifest(path, keys, value)
        with pytest.raises(TraceFormatError) as info:
            TraceReader(path)
        assert detail in str(info.value)


def _redigested_archive(path, trace, patch):
    """Archive ``trace`` (one thread), apply ``patch`` to its record
    blob, and re-digest it so the archive opens: only decoding can tell
    the blob is bad."""
    write_archive(path, trace, nthreads=1)
    data = path.read_bytes()
    manifest_len, offset = _read_varint(data, len(MAGIC) + 1)
    manifest = json.loads(data[offset:offset + manifest_len])
    offset += manifest_len
    entry = manifest["streams"][0]
    blob = bytearray(data[offset:offset + entry["record_bytes"]])
    patch(blob)
    entry["record_sha256"] = hashlib.sha256(blob).hexdigest()
    manifest_blob = canonical_json(manifest).encode()
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    _write_varint(out, len(manifest_blob))
    out.extend(manifest_blob)
    out.extend(blob)
    out.extend(data[offset + entry["record_bytes"]:])
    path.write_bytes(out)
    return path


def _load_then(record):
    """A one-thread trace: a load (3 encoded bytes: header, one-byte
    address delta, register), then ``record``; commit times in order."""
    trace = [_mem(0, 1, RecordKind.LOAD, 0x20, 1, 1), record]
    record.commit_time = 2
    return trace


def _set_kind_bits(blob):
    assert blob[3] & 0x0F == int(RecordKind.LOAD)
    blob[3] = (blob[3] & 0xF0) | 12


def _hl_record():
    record = Record(0, 2, RecordKind.HL_BEGIN)
    record.hl_kind = HLEventKind.MALLOC
    return record


def _set_hl_kind(blob):
    # Record #2: header, extras length, HL tag, then the HL kind.
    assert blob[5] == _X_HL and blob[6] == int(HLEventKind.MALLOC)
    blob[6] = 0x7F


def _critical_record():
    record = Record(0, 2, RecordKind.CRITICAL_USE)
    record.rs1 = 1
    record.critical_kind = "ab"
    return record


def _break_utf8(blob):
    blob[blob.index(b"ab")] = 0xFF


class TestCorruptRecordBlob:
    """A digest-valid archive whose record blob holds a value no encoder
    writes fails with a TraceFormatError naming the record and its
    stream offset, never a bare ValueError."""

    @pytest.mark.parametrize("second, patch, detail", [
        (lambda: _mem(0, 2, RecordKind.LOAD, 0x24, 2, None),
         _set_kind_bits, "invalid record kind 12"),
        (_hl_record, _set_hl_kind, "invalid high-level event kind 127"),
        (_critical_record, _break_utf8, "not UTF-8"),
    ], ids=["header-kind", "hl-kind", "critical-utf8"])
    def test_invalid_value_is_a_format_error(self, tmp_path, second, patch,
                                             detail):
        path = _redigested_archive(tmp_path / "bad.plog",
                                   _load_then(second()), patch)
        reader = TraceReader(path)
        with pytest.raises(TraceFormatError) as info:
            reader.records(0)
        message = str(info.value)
        assert "t0 record blob: record #2 at stream offset 3" in message
        assert detail in message
        with pytest.raises(TraceFormatError):
            replay_archive(reader, "taintcheck")
