"""Tests for the persistent trace-archive format (repro.replay.format).

Covers byte-determinism, full-fidelity round trips, every rejection
path (magic, versions, digests, truncation, trailing bytes), and the
transitive-reduction-vs-naive arc accounting: a captured run's reduced
arcs must encode smaller than the naive full-arc baseline.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.compression import _X_ARCS, _X_CA, _X_HL
from repro.capture.events import Record, RecordKind
from repro.cli import main
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
    replay_all,
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
    large commit times, so their deltas take multi-byte varints."""
    base = 7_001
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

    def test_commit_times_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "t.plog"
        write_archive(path, synthetic_trace(), nthreads=2)
        reader = TraceReader(path)
        assert sorted((r.tid, r.rid, r.commit_time)
                      for r in reader.all_records()) == sorted(
            (r.tid, r.rid, r.commit_time) for r in synthetic_trace())
        assert [(r.tid, r.rid) for r in reader.linearized()] == [
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

    def test_same_run_captured_twice_archives_identically(self, tmp_path):
        # Each run stamps commit times from its own clock, so a second
        # capture in the same process writes the same bytes.
        capture_archive(tmp_path / "a.plog", 3)
        capture_archive(tmp_path / "b.plog", 3)
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

    def test_arc_from_no_thread_rejected(self, tmp_path):
        # Red/green: the writer used to encode this arc, and the reader
        # then rejected its own archive ("arc source tid 1 of a
        # 1-thread run").
        arc = _mem(0, 2, RecordKind.LOAD, 0x24, 2, None)
        arc.add_arc(1, 1)
        path = tmp_path / "t.plog"
        with pytest.raises(TraceFormatError,
                           match="t0#2 has an arc from t1, not a thread of "
                                 "this 1-thread run"):
            write_archive(path, _load_then(arc), nthreads=1)
        assert not path.exists()

    def test_record_from_no_thread_rejected(self, tmp_path):
        # Red/green: the writer used to write t1's stream into a
        # 1-thread archive, and the reader then decoded it.
        trace = [_mem(0, 1, RecordKind.LOAD, 0x20, 1, 1),
                 _mem(1, 1, RecordKind.LOAD, 0x24, 2, 2)]
        path = tmp_path / "t.plog"
        with pytest.raises(TraceFormatError,
                           match="t1 has records, but is not a thread of "
                                 "this 1-thread run"):
            write_archive(path, trace, nthreads=1)
        assert not path.exists()


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

    def test_stream_past_nthreads_rejected(self, tmp_path, capsys):
        # Red/green: a manifest whose thread count disagrees with its
        # streams used to open, and records(1) decoded t1's stream.
        path, _data = _archive_bytes(tmp_path)
        rewrite_manifest(path, ("nthreads",), 1)
        with pytest.raises(TraceFormatError) as info:
            TraceReader(path)
        assert str(info.value) == (
            f"{path}: manifest stream t1 is not a thread of this "
            f"1-thread run")
        assert main(["replay", str(path)]) == 2
        assert "manifest stream t1" in capsys.readouterr().err

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
    # Arc bytes are always last_recv, so honoring another codec name
    # would decode wrong arcs without any error.
    pytest.param(("arc_codec",), "absolute",
                 "'arc_codec' must be 'last_recv', got 'absolute'",
                 id="arc-codec-absolute"),
    pytest.param(("arc_codec",), "rid_delta",
                 "'arc_codec' must be 'last_recv', got 'rid_delta'",
                 id="arc-codec-rid-delta"),
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


def _restamped(data, patch):
    """The archive ``data`` with ``patch`` applied to the list of its
    blobs (each stream's record blob, then its commit blob, in tid
    order; bytearrays) and every byte count and sha256 re-stamped, so
    the archive opens: only decoding can tell a blob is bad."""
    manifest_len, offset = _read_varint(data, len(MAGIC) + 1)
    manifest = json.loads(data[offset:offset + manifest_len])
    offset += manifest_len
    blobs = []
    for entry in manifest["streams"]:
        for name in ("record", "commit"):
            size = entry[f"{name}_bytes"]
            blobs.append(bytearray(data[offset:offset + size]))
            offset += size
    patch(blobs)
    for entry, pair in zip(manifest["streams"], zip(blobs[::2], blobs[1::2])):
        for name, blob in zip(("record", "commit"), pair):
            entry[f"{name}_bytes"] = len(blob)
            entry[f"{name}_sha256"] = hashlib.sha256(blob).hexdigest()
    manifest_blob = canonical_json(manifest).encode()
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    _write_varint(out, len(manifest_blob))
    out.extend(manifest_blob)
    for blob in blobs:
        out.extend(blob)
    return bytes(out)


def _redigested_archive(path, trace, patch):
    """Archive ``trace`` (one thread) with ``patch`` applied to its
    record blob, re-stamped (:func:`_restamped`)."""
    write_archive(path, trace, nthreads=1)
    path.write_bytes(_restamped(path.read_bytes(),
                                lambda blobs: patch(blobs[0])))
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


def _alu_record():
    # Encoded at offset 3 as header, register byte (rd | rs1 << 4), rs2.
    record = Record(0, 2, RecordKind.ALU)
    record.rd, record.rs1, record.rs2 = 1, 2, 3
    return record


def _set_delta_flag(blob):
    assert blob[3] & 0x0F == int(RecordKind.ALU)
    blob[3] |= 0x80


def _drop_address(blob):
    # The second load's delta flag, address delta and register byte go:
    # its header alone reads as a LOAD with no address.
    assert blob[3] & 0x80 and len(blob) == 6
    blob[3] &= 0x7F
    del blob[4:]


def _set_rs2(blob):
    assert blob[5] == 3
    blob[5] = 16


def _ca_mark_record():
    record = Record(0, 2, RecordKind.CA_MARK)
    record.ca_id = 1
    return record


def _rekind_ca_mark(blob):
    # Record #2: header, extras length, CA tag, then the CA kind.
    assert blob[5] == _X_CA and blob[6] == int(RecordKind.CA_MARK)
    blob[6] = int(RecordKind.CRITICAL_USE)


def _arc_record():
    record = _mem(0, 2, RecordKind.LOAD, 0x24, 2, None)
    record.add_arc(0, 1)
    return record


def _set_arc_source(blob):
    # Record #2: header, address delta, register, extras length, arcs
    # tag, arc count, then the source tid. The writer rejects an arc
    # from no thread, so the reader's check is reached by a patch.
    assert blob[7] == _X_ARCS and blob[8] == 1 and blob[9] == 0
    blob[9] = 1


class TestCorruptRecordBlob:
    """A digest-valid archive whose record blob holds a value no encoder
    writes fails with a TraceFormatError naming the record and its
    stream offset, never a bare ValueError."""

    @pytest.mark.parametrize("second, patch, detail", [
        (lambda: _mem(0, 2, RecordKind.LOAD, 0x24, 2, None),
         _set_kind_bits, "invalid record kind 12"),
        (_hl_record, _set_hl_kind, "invalid high-level event kind 127"),
        (_critical_record, _break_utf8, "not UTF-8"),
        # Values no encoder writes that decode into a record a handler
        # or the oracle cannot take (a register or address of None, a
        # register past the file) or into an arc from no thread.
        (_alu_record, _set_delta_flag, "ALU record with an address delta"),
        (lambda: _mem(0, 2, RecordKind.LOAD, 0x24, 2, None), _drop_address,
         "LOAD record without an address"),
        (_alu_record, _set_rs2, "invalid ALU rs2 register 16"),
        (_ca_mark_record, _rekind_ca_mark,
         "record kind 8 in the CA extras section"),
        (_arc_record, _set_arc_source, "arc source tid 1 of a 1-thread run"),
    ], ids=["header-kind", "hl-kind", "critical-utf8", "delta-off-memory",
            "memory-without-delta", "alu-rs2", "ca-rekind", "arc-source"])
    def test_invalid_value_is_a_format_error(self, tmp_path, capsys, second,
                                             patch, detail):
        path = _redigested_archive(tmp_path / "bad.plog",
                                   _load_then(second()), patch)
        reader = TraceReader(path)
        with pytest.raises(TraceFormatError) as info:
            reader.records(0)
        message = str(info.value)
        assert "t0 record blob: record #2 at stream offset 3" in message
        assert detail in message
        with pytest.raises(TraceFormatError):
            replay_all(reader)
        assert main(["replay", str(path)]) == 2
        assert detail in capsys.readouterr().err


def _mutated(base, stream, blob, op, position, value):
    """The archive ``base``, re-stamped, with one byte of stream
    ``stream``'s record (``blob`` 0) or commit (1) blob xored with
    ``value`` (``op`` 0), set to it (1), inserted (2) or deleted (3) at
    ``position`` (modulo the blob's length)."""
    def mutate(blobs):
        target = blobs[(2 * stream + blob) % len(blobs)]
        kind = op if target else 2  # an empty blob can only grow
        at = position % (len(target) + (kind == 2))
        if kind == 0:
            target[at] ^= value or 1
        elif kind == 1:
            target[at] = value
        elif kind == 2:
            target.insert(at, value)
        else:
            del target[at]
    return _restamped(base, mutate)


def _replays_or_fails_cleanly(path, data):
    """Replay ``data`` under every lifeguard: True if it replays, False
    on a TraceFormatError; any other exception escapes."""
    path.write_bytes(data)
    try:
        replay_all(TraceReader(path))
    except TraceFormatError:
        return False
    return True


@pytest.fixture(scope="module")
def base_archive(tmp_path_factory):
    """The archive of racy seed 3 (two threads, captured under
    TaintCheck) as bytes, and a scratch path for its mutants."""
    path = tmp_path_factory.mktemp("fuzz") / "base.plog"
    capture_archive(str(path), 3, "taintcheck")
    return path.read_bytes(), path.with_name("mutant.plog")


class TestMutatedArchives:
    """An archive whose digests are valid but whose streams were
    mutated (a buggy writer, a foreign tool, a hand edit) either
    replays or fails with a TraceFormatError, so ``repro replay`` exits
    0 or 2, never 1 with a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(stream=st.integers(min_value=0), blob=st.sampled_from([0, 1]),
           op=st.integers(min_value=0, max_value=3),
           position=st.integers(min_value=0),
           value=st.integers(min_value=0, max_value=255))
    def test_replays_or_fails_cleanly(self, base_archive, stream, blob, op,
                                      position, value):
        base, path = base_archive
        _replays_or_fails_cleanly(
            path, _mutated(base, stream, blob, op, position, value))

    @pytest.mark.slow
    def test_ten_thousand_mutations(self, base_archive):
        base, path = base_archive
        rng = random.Random(38)
        outcomes = [
            _replays_or_fails_cleanly(path, _mutated(
                base, rng.randrange(2), int(rng.random() < 0.2),
                rng.randrange(4), rng.randrange(1 << 16),
                rng.randrange(256)))
            for _ in range(10_000)]
        # Both outcomes occur: the mutants reach the decoder, and not
        # every one of them is rejected.
        assert 0 < sum(outcomes) < len(outcomes)
