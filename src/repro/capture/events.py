"""Event records — the unit of the per-thread event streams.

One :class:`Record` corresponds to one retired application micro-op (or
an injected ConflictAlert marker). Records carry everything the
lifeguard side needs: the instruction fields, any incoming dependence
arcs ``(src_tid, src_rid)``, ConflictAlert linkage, and TSO version
annotations. Record ids (RIDs) are per-thread and dense, assigned at
retirement by the order-capture component — the paper's per-core retired
instruction counter.

The log buffer models compression (Section 2: under 1 byte per record on
average) through :func:`record_size_bytes` rather than by actually
encoding bytes.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.isa.instructions import MicroOp, OpKind


class RecordKind(enum.IntEnum):
    """Record types in the event stream.

    Values below 20 coincide with :class:`~repro.isa.instructions.OpKind`
    so conversion is a constant-time cast; ``CA_MARK`` is the injected
    ConflictAlert record that has no corresponding application micro-op.
    """

    LOAD = 1
    STORE = 2
    RMW = 3
    MOVRR = 4
    ALU = 5
    LOADI = 6
    NOP = 7
    CRITICAL_USE = 8
    HL_BEGIN = 9
    HL_END = 10
    THREAD_EXIT = 11
    CA_MARK = 20


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
_MEMORY_KINDS = frozenset({RecordKind.LOAD, RecordKind.STORE, RecordKind.RMW})
_WRITE_KINDS = frozenset({RecordKind.STORE, RecordKind.RMW})

#: ``OpKind`` value -> the record kind of the same value, so
#: :meth:`Record.from_op` indexes a tuple instead of calling the enum.
_KIND_OF_OP = tuple(
    RecordKind(int(op_kind)) if op_kind else None
    for op_kind in range(max(OpKind) + 1))


class Record:
    """One event-stream record."""

    __slots__ = (
        "tid",
        "rid",
        "kind",
        "addr",
        "size",
        "rd",
        "rs1",
        "rs2",
        "hl_kind",
        "ranges",
        "critical_kind",
        "arcs",
        "reduced_arcs",
        "ca_id",
        "ca_issuer",
        "consume_version",
        "produce_versions",
        "commit_time",
    )

    def __init__(self, tid: int, rid: int, kind: RecordKind):
        self.tid = tid
        self.rid = rid
        self.kind = kind
        self.addr: Optional[int] = None
        self.size: Optional[int] = None
        self.rd: Optional[int] = None
        self.rs1: Optional[int] = None
        self.rs2: Optional[int] = None
        self.hl_kind = None
        self.ranges: Tuple = ()
        self.critical_kind: Optional[str] = None
        #: Incoming dependence arcs: list of (src_tid, src_rid).
        self.arcs: Optional[List[Tuple[int, int]]] = None
        #: Arcs dropped by RTR transitive reduction (already implied by
        #: an earlier arc from the same source). Only populated on
        #: ``keep_trace`` runs, so archive writers can honestly measure
        #: a naive full-arc encoding against the reduced one.
        self.reduced_arcs: Optional[List[Tuple[int, int]]] = None
        #: ConflictAlert id this record participates in (CA_MARK records
        #: and the HL records of the issuing thread).
        self.ca_id: Optional[int] = None
        #: True on the issuing thread's HL record, False on CA_MARK copies.
        self.ca_issuer: bool = False
        #: TSO: version id whose metadata this (load) record must consume.
        self.consume_version = None
        #: TSO: version ids (with address ranges) this (store) record must
        #: produce before updating metadata: list of (version_id, addr, size).
        self.produce_versions: Optional[List] = None
        #: Simulated time at which the record entered the log (set by the
        #: order-capture component; used by the sequential oracle).
        self.commit_time: Optional[int] = None

    @classmethod
    def from_op(cls, tid: int, rid: int, op: MicroOp) -> "Record":
        # One record per retired instruction: every slot is set exactly
        # once here, rather than defaulted by __init__ and overwritten.
        record = cls.__new__(cls)
        record.tid = tid
        record.rid = rid
        record.kind = _KIND_OF_OP[op.kind]
        record.addr = op.addr
        record.size = op.size
        record.rd = op.rd
        record.rs1 = op.rs1
        record.rs2 = op.rs2
        record.hl_kind = op.hl_kind
        record.ranges = op.ranges or ()
        record.critical_kind = op.critical_kind
        record.arcs = None
        record.reduced_arcs = None
        record.ca_id = None
        record.ca_issuer = False
        record.consume_version = None
        record.produce_versions = None
        record.commit_time = None
        return record

    @property
    def is_memory(self) -> bool:
        return self.kind in _MEMORY_KINDS

    @property
    def is_write(self) -> bool:
        return self.kind in _WRITE_KINDS

    def add_arc(self, src_tid: int, src_rid: int) -> None:
        if self.arcs is None:
            self.arcs = []
        self.arcs.append((src_tid, src_rid))

    def add_reduced_arc(self, src_tid: int, src_rid: int) -> None:
        """Remember an arc that transitive reduction dropped."""
        if self.reduced_arcs is None:
            self.reduced_arcs = []
        self.reduced_arcs.append((src_tid, src_rid))

    def __repr__(self):
        extra = ""
        if self.addr is not None:
            extra += f" addr={self.addr:#x}"
        if self.arcs:
            extra += f" arcs={self.arcs}"
        if self.hl_kind is not None:
            extra += f" hl={self.hl_kind.name}"
        return f"Record(t{self.tid} #{self.rid} {self.kind.name}{extra})"


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
