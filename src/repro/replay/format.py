"""The persistent trace-archive format (``.plog``).

One archive file serializes one captured run — the paper's inter-thread
order, made durable — so monitoring can be decoupled from capture in
time and fanned out in space (Taurus-style per-worker logs with
lightweight sequencing metadata are the blueprint; see PAPERS.md).

Layout, all little-endian at the byte level::

    MAGIC (8 bytes)  \\x89 P L O G \\r \\n \\x1a
    version (1 byte)  the on-disk format version
    varint            manifest length in bytes
    manifest          canonical JSON (sorted keys, compact separators)
    stream blobs      per thread, in tid order:
                        record blob   (RecordEncoder, last_recv arcs)
                        commit blob   (zigzag-varint commit_time deltas)

The manifest carries the format version (again — header and manifest
must agree), the arc codec, per-stream record counts, byte counts and
sha256 digests, compression totals (including the naive full-arc
baseline for the transitive-reduction comparison), a config digest, and
caller-supplied ``meta`` (seed, scheme, workload, capture lifeguard).
Nothing in the file depends on wall clock, host or process identity:
archiving the same run twice produces byte-identical files, which is
what makes golden-fixture drift tests and byte-level CI diffs possible.

Every structural problem — bad magic, a future format version, a digest
mismatch, stream/manifest disagreement — raises
:class:`~repro.common.errors.TraceFormatError` with enough context to
tell corruption from version skew.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.capture.compression import (
    RecordEncoder,
    _read_varint,
    _write_varint,
    _zigzag,
    decode_stream,
    naive_arc_cost,
)
from repro.capture.events import Record
from repro.common.errors import TraceFormatError
from repro.lifeguards.oracle import deliver

_COMMIT_TIME = attrgetter("commit_time")

#: PNG-style magic: high-bit byte (binary-vs-text probes), name, CRLF/LF
#: and ^Z so accidental text-mode mangling is detected immediately.
MAGIC = b"\x89PLOG\r\n\x1a"

#: Current on-disk format version. Bump on any incompatible layout or
#: codec change and regenerate the golden fixture under ``tests/data/``.
FORMAT_VERSION = 1

#: The manifest's ``arc_codec``: the one arc encoding (the transitive-
#: reduction-aware one). A reader rejects any other value.
ARCHIVE_ARC_CODEC = "last_recv"


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN.

    This is the byte-level canonical form used everywhere replay output
    is compared for identity (manifests, verdicts, fingerprints).
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_digest(config) -> Optional[str]:
    """sha256 over a :class:`~repro.common.config.SimulationConfig`.

    Enums collapse to their values so the digest is stable across
    processes; None (no config supplied) digests to None.
    """
    if config is None:
        return None

    def _plain(value):
        if isinstance(value, enum.Enum):
            return value.value
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {k: _plain(v)
                    for k, v in dataclasses.asdict(value).items()}
        if isinstance(value, dict):
            return {k: _plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [_plain(v) for v in value]
        return value

    payload = canonical_json(_plain(config)).encode()
    return hashlib.sha256(payload).hexdigest()


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _commit_base(streams: Dict[int, List[Record]]) -> int:
    """The rebase offset making archived commit times process-free.

    Live commit times come from a process-global monotonic counter
    (:data:`repro.capture.order_capture._GLOBAL_SEQ`), so their absolute
    values depend on how many runs the process executed before this one.
    Only their *relative order* matters to replay; subtracting
    ``min - 1`` roots every archive at commit time 1 and makes archiving
    the same captured order byte-identical in any process.
    """
    times = [record.commit_time for records in streams.values()
             for record in records if record.commit_time is not None]
    return (min(times) - 1) if times else 0


def _encode_commit_times(records: List[Record], base: int = 0) -> bytes:
    """Zigzag-varint delta stream of per-record commit times.

    Per-thread commit times are *not* monotone in RID order (a TSO
    store's time is assigned at drain, after younger loads got theirs),
    hence the signed deltas. ``base`` (see :func:`_commit_base`) is
    subtracted from every value so the stream is rooted at 1.
    """
    out = bytearray()
    previous = 0
    for record in records:
        if record.commit_time is None:
            raise TraceFormatError(
                f"t{record.tid}#{record.rid} has no commit_time — only "
                f"completed runs (every record flushed to its log) can "
                f"be archived")
        rebased = record.commit_time - base
        _write_varint(out, _zigzag(rebased - previous))
        previous = rebased
    return bytes(out)


def _decode_commit_times(blob: bytes, count: int) -> List[int]:
    values: List[int] = []
    append = values.append
    offset = 0
    previous = 0
    end = len(blob)
    for index in range(count):
        # Most deltas are single-byte varints: read those inline.
        if offset < end and blob[offset] < 0x80:
            raw = blob[offset]
            offset += 1
        else:
            try:
                raw, offset = _read_varint(blob, offset)
            except TraceFormatError as exc:
                raise TraceFormatError(
                    f"commit-time blob truncated at entry {index}: {exc}"
                ) from None
        previous += (raw >> 1) ^ -(raw & 1)  # unzigzag
        append(previous)
    if offset != end:
        raise TraceFormatError(
            f"commit-time blob has {end - offset} trailing bytes")
    return values


def _group_streams(trace: Iterable[Record],
                   nthreads: int) -> Dict[int, List[Record]]:
    """Split a captured trace into dense per-thread RID streams."""
    streams: Dict[int, List[Record]] = {tid: [] for tid in range(nthreads)}
    for record in trace:
        streams.setdefault(record.tid, []).append(record)
    for tid, records in sorted(streams.items()):
        records.sort(key=lambda record: record.rid)
        for expected, record in enumerate(records, start=1):
            if record.rid != expected:
                raise TraceFormatError(
                    f"t{tid} stream is not dense: expected rid "
                    f"{expected}, found {record.rid} — archives require "
                    f"a complete capture")
    return streams


def write_archive(path: str, trace: Iterable[Record], *, nthreads: int,
                  meta: Optional[dict] = None, config=None) -> dict:
    """Serialize a captured run to ``path``; returns the manifest dict.

    ``trace`` is the ``keep_trace=True`` record list of a completed
    monitored run (per-thread streams must be dense and every record
    committed). ``meta`` is caller-owned provenance (seed, scheme,
    workload, capture lifeguard, instruction count) and must be JSON;
    ``config`` contributes a digest so replays can detect they are
    reading a trace captured under different machine parameters.
    """
    streams = _group_streams(trace, nthreads)
    commit_base = _commit_base(streams)
    stream_entries = []
    blobs: List[bytes] = []
    total_records = 0
    total_arc_bytes = 0
    total_naive_arc_bytes = 0
    for tid, records in sorted(streams.items()):
        encoder = RecordEncoder()
        record_blob = b"".join(encoder.encode(r) for r in records)
        commit_blob = _encode_commit_times(records, commit_base)
        naive_arcs, naive_arc_bytes = naive_arc_cost(records)
        stream_entries.append({
            "tid": tid,
            "records": len(records),
            "record_bytes": len(record_blob),
            "record_sha256": _sha256(record_blob),
            "commit_bytes": len(commit_blob),
            "commit_sha256": _sha256(commit_blob),
            "arcs": encoder.arcs,
            "arc_bytes": encoder.arc_bytes,
            "naive_arcs": naive_arcs,
            "naive_arc_bytes": naive_arc_bytes,
        })
        blobs.append(record_blob)
        blobs.append(commit_blob)
        total_records += len(records)
        total_arc_bytes += encoder.arc_bytes
        total_naive_arc_bytes += naive_arc_bytes

    manifest = {
        "format_version": FORMAT_VERSION,
        "arc_codec": ARCHIVE_ARC_CODEC,
        "nthreads": nthreads,
        "config_digest": config_digest(config),
        "meta": dict(meta or {}),
        "streams": stream_entries,
        "totals": {
            "records": total_records,
            "stream_bytes": sum(len(blob) for blob in blobs),
            "arc_bytes": total_arc_bytes,
            "naive_arc_bytes": total_naive_arc_bytes,
        },
    }
    manifest_blob = canonical_json(manifest).encode()

    out = bytearray()
    out.extend(MAGIC)
    out.append(FORMAT_VERSION)
    _write_varint(out, len(manifest_blob))
    out.extend(manifest_blob)
    for blob in blobs:
        out.extend(blob)
    with open(path, "wb") as handle:
        handle.write(out)
    return manifest


def write_manifest_json(manifest: dict, path: str) -> str:
    """Write a manifest as standalone indented JSON (CI artifacts)."""
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _is_count(value) -> bool:
    """A JSON non-negative integer (``true`` is not one)."""
    return type(value) is int and value >= 0


def _check_field(value, ok: bool, field: str, expected: str) -> None:
    if not ok:
        raise TraceFormatError(
            f"archive manifest {field} must be {expected}, got {value!r}")


def _check_manifest(manifest: dict) -> None:
    """Check every manifest field the reader uses, so a malformed
    manifest fails as a TraceFormatError naming the field rather than a
    KeyError or TypeError from inside the reader."""
    if not isinstance(manifest, dict):
        raise TraceFormatError("archive manifest is not a JSON object")
    for key in ("format_version", "arc_codec", "nthreads", "streams",
                "totals"):
        if key not in manifest:
            raise TraceFormatError(f"archive manifest lacks {key!r}")
    codec, nthreads = manifest["arc_codec"], manifest["nthreads"]
    meta, streams = manifest.get("meta", {}), manifest["streams"]
    _check_field(codec, isinstance(codec, str), "'arc_codec'", "a string")
    _check_field(codec, codec == ARCHIVE_ARC_CODEC, "'arc_codec'",
                 repr(ARCHIVE_ARC_CODEC))
    _check_field(nthreads, _is_count(nthreads), "'nthreads'",
                 "a non-negative int")
    _check_field(meta, isinstance(meta, dict), "'meta'", "a JSON object")
    _check_field(streams, isinstance(streams, list), "'streams'", "a list")
    for index, entry in enumerate(streams):
        where = f"streams[{index}]"
        _check_field(entry, isinstance(entry, dict), where, "a JSON object")
        for key in ("tid", "records", "record_bytes", "record_sha256",
                    "commit_bytes", "commit_sha256"):
            if key not in entry:
                raise TraceFormatError(
                    f"archive manifest {where} lacks {key!r}")
            value = entry[key]
            if key.endswith("_sha256"):
                _check_field(value, isinstance(value, str),
                             f"{where}.{key}", "a string")
            else:
                _check_field(value, _is_count(value), f"{where}.{key}",
                             "a non-negative int")
    tids = [entry["tid"] for entry in streams]
    if tids != sorted(tids) or len(set(tids)) != len(tids):
        raise TraceFormatError(
            f"archive manifest streams are not in dense tid order: {tids}")


class TraceReader:
    """Validated random access to one archive's streams.

    Opening eagerly reads the whole file, checks magic, version (both
    copies), manifest shape and every stream's sha256; decoding is lazy
    per thread and cached. ``records(tid)`` returns the thread's stream
    with commit times restored; :func:`linearized` merges all streams
    into the run's global coherence order — the exact order the
    sequential oracle (and therefore any lifeguard replay) consumes.
    :meth:`delivered` and :meth:`retire_orders` compute the
    lifeguard-independent half of a replay once per reader, so every
    lifeguard replayed from one reader shares them.
    """

    def __init__(self, path: str):
        self.path = str(path)
        with open(path, "rb") as handle:
            data = handle.read()
        if len(data) < len(MAGIC) + 1 or data[:len(MAGIC)] != MAGIC:
            raise TraceFormatError(
                f"{path}: not a trace archive (bad magic)")
        version = data[len(MAGIC)]
        if version > FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: format version {version} is newer than the "
                f"supported {FORMAT_VERSION} — written by a newer repro; "
                f"upgrade before replaying")
        if version < 1:
            raise TraceFormatError(f"{path}: invalid format version 0")
        offset = len(MAGIC) + 1
        manifest_len, offset = _read_varint(data, offset)
        if offset + manifest_len > len(data):
            raise TraceFormatError(
                f"{path}: truncated manifest ({manifest_len} bytes "
                f"declared, {len(data) - offset} available)")
        try:
            manifest = json.loads(data[offset:offset + manifest_len])
        except ValueError as exc:
            raise TraceFormatError(
                f"{path}: manifest is not valid JSON: {exc}") from exc
        offset += manifest_len
        _check_manifest(manifest)
        if manifest["format_version"] != version:
            raise TraceFormatError(
                f"{path}: header version {version} != manifest version "
                f"{manifest['format_version']}")
        self.version = version
        self.manifest = manifest
        self._blobs: Dict[int, Tuple[bytes, bytes]] = {}
        self._decoded: Dict[int, List[Record]] = {}
        self._delivered: Optional[List[tuple]] = None
        self._retire_orders: Optional[Dict[int, List[int]]] = None
        for entry in manifest["streams"]:
            record_blob = data[offset:offset + entry["record_bytes"]]
            offset += entry["record_bytes"]
            commit_blob = data[offset:offset + entry["commit_bytes"]]
            offset += entry["commit_bytes"]
            for name, blob in (("record", record_blob),
                               ("commit", commit_blob)):
                declared = entry[f"{name}_bytes"]
                if len(blob) != declared:
                    raise TraceFormatError(
                        f"{path}: t{entry['tid']} {name} blob truncated "
                        f"({declared} bytes declared, {len(blob)} present)")
                digest = _sha256(blob)
                if digest != entry[f"{name}_sha256"]:
                    raise TraceFormatError(
                        f"{path}: t{entry['tid']} {name} blob sha256 "
                        f"mismatch ({digest} != {entry[f'{name}_sha256']})"
                        f" — the archive is corrupt")
            self._blobs[entry["tid"]] = (record_blob, commit_blob)
        if offset != len(data):
            raise TraceFormatError(
                f"{path}: {len(data) - offset} trailing bytes after the "
                f"last stream")

    @property
    def nthreads(self) -> int:
        """Application thread count recorded at capture time."""
        return self.manifest["nthreads"]

    @property
    def meta(self) -> dict:
        """Caller-supplied provenance (seed, scheme, workload, ...)."""
        return self.manifest.get("meta", {})

    def tids(self) -> List[int]:
        """Thread ids with a stream in this archive."""
        return sorted(self._blobs)

    def records(self, tid: int) -> List[Record]:
        """Decode (once) and return one thread's stream, rid order."""
        if tid in self._decoded:
            return self._decoded[tid]
        if tid not in self._blobs:
            raise TraceFormatError(
                f"{self.path}: no stream for tid {tid} "
                f"(have {self.tids()})")
        record_blob, commit_blob = self._blobs[tid]
        entry = next(e for e in self.manifest["streams"]
                     if e["tid"] == tid)
        try:
            records = decode_stream(record_blob, tid)
        except TraceFormatError as exc:
            raise TraceFormatError(
                f"{self.path}: t{tid} record blob: {exc}") from None
        if len(records) != entry["records"]:
            raise TraceFormatError(
                f"{self.path}: t{tid} decoded {len(records)} records, "
                f"manifest declares {entry['records']}")
        for record, commit_time in zip(
                records, _decode_commit_times(commit_blob, len(records))):
            record.commit_time = commit_time
        self._decoded[tid] = records
        return records

    def all_records(self) -> List[Record]:
        """Every stream's records, concatenated in tid order."""
        combined: List[Record] = []
        for tid in self.tids():
            combined.extend(self.records(tid))
        return combined

    def linearized(self) -> List[Record]:
        """All records merged into the global coherence order."""
        records = self.all_records()
        # all_records() is in (tid, rid) order and list.sort is stable,
        # so sorting on commit_time alone yields oracle.linearize()'s
        # (commit_time, tid, rid) order, commit-time ties included.
        # Every archived record has a commit time.
        records.sort(key=_COMMIT_TIME)
        return records

    def delivered(self) -> List[tuple]:
        """The archive's delivered-event stream, built once and cached.

        :func:`~repro.lifeguards.oracle.deliver` over :meth:`linearized`
        — everything about a replay that does not depend on the
        lifeguard. Every call returns the same list, which each
        lifeguard replay of this reader reads and none may modify.
        """
        if self._delivered is None:
            self._delivered = deliver(self.linearized())
        return self._delivered

    def retire_orders(self) -> Dict[int, List[int]]:
        """Per-thread retired rid order, built once and cached (shared
        like :meth:`delivered`: copy before modifying)."""
        if self._retire_orders is None:
            self._retire_orders = {
                tid: [record.rid for record in self.records(tid)]
                for tid in self.tids()}
        return self._retire_orders

    def bytes_per_instruction(self) -> float:
        """Archived stream bytes per retired instruction (0.0 if the
        capture meta carries no instruction count)."""
        instructions = self.meta.get("instructions") or 0
        if not instructions:
            return 0.0
        return self.manifest["totals"]["stream_bytes"] / instructions
