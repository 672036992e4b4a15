"""Event records — the unit of the per-thread event streams.

One :class:`~repro.isa.instructions.Record` is one retired application
instruction (or an injected ConflictAlert marker): the object the
workload kernel yielded, stamped at retirement. It lives in
:mod:`repro.isa.instructions`, beside the factories that build it, and
is exported here for the capture side. Record ids (RIDs) are per-thread
and dense, assigned at retirement by the order-capture component — the
paper's per-core retired instruction counter.

The log buffer models compression (Section 2: under 1 byte per record on
average) through :func:`record_size_bytes` rather than by actually
encoding bytes.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import WorkloadError
from repro.isa.instructions import Record, RecordKind

#: Kind -> its name, for the hot paths that write a kind as text (an
#: enum's ``.name`` is a descriptor call, several times a dict hit).
KIND_NAMES = {kind: kind.name for kind in RecordKind}

#: Modeled compressed sizes (bytes) for log-occupancy accounting.
_BASE_RECORD_BYTES = 1
_ARC_BYTES = 4
_HIGHLEVEL_RECORD_BYTES = 16
_VERSION_ANNOTATION_BYTES = 8

_HIGHLEVEL_KINDS = frozenset(
    {RecordKind.HL_BEGIN, RecordKind.HL_END, RecordKind.CA_MARK}
)


def recaptured(tid: int, record: Record) -> WorkloadError:
    """The error for a record that already retired once: stamping it
    again would make two log entries one object."""
    return WorkloadError(
        f"thread {tid} yielded {record!r} a second time; a kernel must "
        f"yield a fresh op for every instruction")


class RecordSource:
    """One thread's retired-record counter and the record stamper.

    ``current_rids[tid]`` is the thread's last retired RID. Order
    capture shares that dict across threads (the per-core capture mode
    reads the other threads' counters); an unmonitored run's stand-in
    keeps its own.
    """

    __slots__ = ("tid", "current_rids")

    def __init__(self, tid: int, current_rids: Dict[int, int]):
        self.tid = tid
        self.current_rids = current_rids

    def begin_record(self, record: Record) -> Record:
        """Stamp a retiring record with this thread's id and its RID,
        advancing the counter; returns the record."""
        tid = self.tid
        if record.rid is not None:
            raise recaptured(tid, record)
        current_rids = self.current_rids
        rid = current_rids[tid] + 1
        current_rids[tid] = rid
        record.tid = tid
        record.rid = rid
        return record


def record_size_bytes(record: Record) -> int:
    """Modeled compressed size of ``record`` in the log buffer."""
    if record.kind in _HIGHLEVEL_KINDS:
        size = _HIGHLEVEL_RECORD_BYTES
    else:
        size = _BASE_RECORD_BYTES
    if record.arcs:
        size += _ARC_BYTES * len(record.arcs)
    if record.consume_version is not None:
        size += _VERSION_ANNOTATION_BYTES
    if record.produce_versions:
        size += _VERSION_ANNOTATION_BYTES * len(record.produce_versions)
    return size
