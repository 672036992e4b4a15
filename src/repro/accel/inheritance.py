"""Inheritance Tracking (IT).

IT shadows the application's registers in hardware: a load into ``r``
records "``r`` inherits from address A" *without* delivering the event;
register movement and computation propagate and merge rows; a store of
an inheriting register delivers one condensed ``mem_inherit`` event
instead of the whole chain (Figure 3 of the paper).

A row describes the pending metadata of one register as an OR over

* up to :data:`MAX_SOURCES` *inherits-from addresses* (whose metadata
  will be read when the row is materialized), and
* up to :data:`MAX_REG_TERMS` *live registers* (whose lifeguard register
  metadata is current and will be read at materialization).

An empty row is an immediate (metadata-clear). Live-register terms stay
valid because any write to a register first flushes every row that
references it; address terms stay valid through:

* local conflicts — a store/RMW overlapping a recorded inherits-from
  address flushes the row (as in the sequential design, Section 4.1);
* remote conflicts — **delayed advertising** (Section 4.2): every row
  keeps the record id (RID) of the oldest load it depends on, and the
  thread's advertised progress is held at ``min(held RIDs) - 1``, so a
  remote writer's dependent event cannot be delivered until the row is
  gone;
* high-level conflicts — ConflictAlert records flush the whole table
  (Section 4.3).

Delayed advertising asks for the minimum held RID after every record,
so the table caches it per thread: inserting a row can only lower the
cached floor, and only removing or replacing the row that holds it
forces a rescan (see :meth:`InheritanceTracking.min_held_rid`).

Delivered events are plain tuples; the vocabulary is documented in
:mod:`repro.lifeguards.base`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.capture.events import Record, RecordKind

#: Maximum inherits-from addresses one register row can hold.
MAX_SOURCES = 2
#: Maximum live-register OR-terms one register row can hold.
MAX_REG_TERMS = 2

_LOAD = RecordKind.LOAD
_STORE = RecordKind.STORE
_RMW = RecordKind.RMW
_MOVRR = RecordKind.MOVRR
_ALU = RecordKind.ALU
_LOADI = RecordKind.LOADI
_CRITICAL_USE = RecordKind.CRITICAL_USE
_HL_BEGIN = RecordKind.HL_BEGIN
_HL_END = RecordKind.HL_END
_THREAD_EXIT = RecordKind.THREAD_EXIT

#: Marks a thread whose cached RID floor must be recomputed.
_STALE = object()

#: Record kind -> event name delivered with IT disabled (a versioned
#: load becomes ``load_versioned``); other kinds deliver nothing.
_PASSTHROUGH_EVENTS = {
    RecordKind.LOAD: "load",
    RecordKind.STORE: "store",
    RecordKind.RMW: "rmw",
    RecordKind.MOVRR: "movrr",
    RecordKind.ALU: "alu",
    RecordKind.LOADI: "loadi",
    RecordKind.CRITICAL_USE: "critical",
    RecordKind.HL_BEGIN: "hl",
    RecordKind.HL_END: "hl",
}


def passthrough_events(records: Iterable[Record]) -> List[tuple]:
    """The events ``records`` deliver with IT disabled, in order.

    A record whose kind has a :data:`_PASSTHROUGH_EVENTS` name delivers
    one ``(name, record)`` event, named ``load_versioned`` for a load
    that consumes a TSO version; any other record delivers nothing.
    """
    names = _PASSTHROUGH_EVENTS
    return [("load_versioned"
             if name == "load" and record.consume_version is not None
             else name, record)
            for record in records
            if (name := names.get(record.kind)) is not None]


class _Row:
    """One IT table row; see the module docstring."""

    __slots__ = ("sources", "regs", "rid")

    def __init__(self, sources: Tuple, regs: Tuple, rid: Optional[int]):
        self.sources = sources  # tuple of (addr, size)
        self.regs = regs  # tuple of live register ids
        self.rid = rid  # oldest source RID (None if no address terms)


class InheritanceTracking:
    """The IT table for one lifeguard hardware context.

    Rows are keyed by ``(tid, reg)`` so the same structure serves both a
    dedicated per-thread lifeguard core (parallel monitoring, single tid)
    and the sequential time-sliced lifeguard, which interleaves records
    of many application threads through one core.
    """

    def __init__(self, enabled: bool = True, tracer=None, owner: str = "",
                 load_checks: bool = True):
        self.enabled = enabled
        #: Deliver the ``load_check`` half of an absorbed load. The
        #: lifeguard core passes False when its lifeguard registers no
        #: ``load_check`` handler (TaintCheck), which would drop it.
        self.load_checks = load_checks
        self._rows: Dict[Tuple[int, int], _Row] = {}
        #: tid -> the smallest RID its rows hold (None: they hold none).
        #: Every cached value is exact; a tid missing here is stale and
        #: :meth:`min_held_rid` rescans it. Rows change only through
        #: :meth:`_put` and :meth:`_pop`, which keep this invariant. The
        #: lifeguard core reads a present value directly, once per
        #: record, to skip delayed advertising when nothing is held.
        self.floor: Dict[int, Optional[int]] = {}
        # The ``accel`` absorb/condense emitters of an optional
        # :class:`~repro.trace.TraceWriter` (None unless it records
        # them); ``owner`` names the lifeguard core this table serves.
        self._absorb_emit = self._condense_emit = None
        if tracer is not None:
            self._absorb_emit = tracer.prepare(
                "accel", "it_absorb", ("tid", "rid"), owner=owner)
            self._condense_emit = tracer.prepare(
                "accel", "it_condense", ("tid", "rid"), owner=owner)
        # Statistics
        self.absorbed_events = 0
        self.delivered_condensed = 0
        self.row_flushes = 0
        self.full_flushes = 0

    # -- main entry -----------------------------------------------------------

    def process(self, record: Record) -> List[tuple]:
        """Feed one record through IT; returns the delivered events."""
        if not self.enabled:
            return self._passthrough(record)
        if self._absorb_emit is not None:
            absorbed_mark = self.absorbed_events
            condensed_mark = self.delivered_condensed
            out = self._process_enabled(record)
            # One trace event per record that was absorbed into (or
            # condensed out of) the table, stamped with its identity.
            if self.absorbed_events > absorbed_mark:
                self._absorb_emit(record.tid, record.rid)
            if self.delivered_condensed > condensed_mark:
                self._condense_emit(record.tid, record.rid)
            return out
        return self._process_enabled(record)

    def bound_process(self):
        """:meth:`process` with its enabled/tracer checks resolved once,
        for a consumer that feeds every record of a run through it."""
        if self._absorb_emit is not None:
            return self.process
        if not self.enabled:
            return self._passthrough
        return self._process_enabled

    def _process_enabled(self, record: Record) -> List[tuple]:
        kind = record.kind
        tid = record.tid

        if kind == _LOAD:
            if record.consume_version is not None:
                # TSO: versioned loads are always delivered, along with any
                # pending state that inherits from the same address.
                out = self.flush_overlapping(record.addr, record.size)
                out.extend(self._flush_referencing(tid, record.rd))
                out.append(("load_versioned", record))
                self._pop((tid, record.rd))
                return out
            # Absorbing never touches the lifeguard's register value,
            # so rows referencing rd stay valid (they refer to the
            # stored metadata, which only handler execution changes).
            # _put, inlined: the new row holds this record's RID.
            rid = record.rid
            key = (tid, record.rd)
            rows = self._rows
            old = rows[key] if key in rows else None
            rows[key] = _Row(((record.addr, record.size),), (), rid)
            floor = self.floor
            if tid in floor:
                held = floor[tid]
                if held is None or rid <= held:
                    floor[tid] = rid
                elif old is not None and old.rid == held:
                    del floor[tid]
            self.absorbed_events += 1
            # The *check* half of the load is still delivered: check
            # lifeguards (MemCheck, AddrCheck) must inspect every
            # access even when its propagation is deferred. A pure
            # propagation lifeguard (TaintCheck) registers no handler
            # for it, so IT does not build the event. The Idempotent
            # Filter is the accelerator that absorbs these.
            if self.load_checks:
                return [("load_check", record)]
            return []

        if kind == _ALU:
            return self._process_alu(record)

        if kind == _STORE:
            return self._process_store(record)

        if kind == _MOVRR:
            return self._absorb_copy(tid, record.rd, record.rs1)

        if kind == _LOADI:
            self._put(tid, record.rd, _Row((), (), None))
            self.absorbed_events += 1
            return []

        if kind == _RMW:
            out = self.flush_overlapping(record.addr, record.size)
            out.extend(self._flush_referencing(tid, record.rd))
            self._pop((tid, record.rd))
            out.append(("rmw", record))
            return out

        if kind == _CRITICAL_USE:
            out = self._flush_reg(tid, record.rs1)
            out.append(("critical", record))
            return out

        if kind == _HL_BEGIN or kind == _HL_END:
            return [("hl", record)]

        if kind == _THREAD_EXIT:
            return self.flush_thread(tid)

        # NOP and CA_MARK records deliver nothing through IT; CA-triggered
        # flushes are driven by the consumer pipeline via flush_all().
        return []

    # -- the table ------------------------------------------------------------

    def _put(self, tid: int, reg: int, row: _Row) -> None:
        """Install ``row`` for ``(tid, reg)``, keeping the floor exact."""
        key = (tid, reg)
        rows = self._rows
        old = rows.get(key)
        rows[key] = row
        floor = self.floor
        held = floor.get(tid, _STALE)
        if held is _STALE:
            return
        rid = row.rid
        if rid is not None and (held is None or rid <= held):
            floor[tid] = rid  # a new row can only lower the floor
        elif old is not None and held is not None and old.rid == held:
            del floor[tid]  # replaced the row holding the floor

    def _pop(self, key: Tuple[int, int]) -> Optional[_Row]:
        """Remove and return ``key``'s row, keeping the floor exact."""
        row = self._rows.pop(key, None)
        if row is not None and row.rid is not None:
            floor = self.floor
            if floor.get(key[0]) == row.rid:
                del floor[key[0]]  # removed the row holding the floor
        return row

    # -- absorption helpers ------------------------------------------------------

    def _absorb_copy(self, tid: int, rd: int, rs: int) -> List[tuple]:
        """rd <- rs for moves and unary computation (always absorbable)."""
        if rd != rs:
            src = self._rows.get((tid, rs))
            if src is not None:
                self._put(tid, rd, _Row(src.sources, src.regs, src.rid))
            else:
                # rs is live: defer by referencing its current metadata.
                self._put(tid, rd, _Row((), (rs,), None))
        # (rd == rs: a unary in-place update keeps the existing row, or
        # live metadata, semantically unchanged for OR-propagation.)
        self.absorbed_events += 1
        return []

    def _process_alu(self, record: Record) -> List[tuple]:
        tid = record.tid
        rd = record.rd
        rs1 = record.rs1
        rs2 = record.rs2
        if rs2 is None:
            return self._absorb_copy(tid, rd, rs1)

        # A register without a row is one live-register term.
        rows = self._rows
        key1 = (tid, rs1)
        row1 = rows[key1] if key1 in rows else None
        key2 = (tid, rs2)
        row2 = rows[key2] if key2 in rows else None
        if row1 is None:
            sources, regs, rid = (), (rs1,), None
        else:
            sources, regs, rid = row1.sources, row1.regs, row1.rid
        if row2 is None:
            if rs2 not in regs:
                regs += (rs2,)
        else:
            for source in row2.sources:
                if source not in sources:
                    sources += (source,)
            for reg in row2.regs:
                if reg not in regs:
                    regs += (reg,)
            rid2 = row2.rid
            if rid2 is not None and (rid is None or rid2 < rid):
                rid = rid2
        if len(sources) <= MAX_SOURCES and len(regs) <= MAX_REG_TERMS:
            # A self-reference (rd in regs, the accumulator pattern) is
            # sound: it denotes rd's *stored* metadata, which stays
            # untouched until this row itself materializes.
            # _put, inlined.
            key = (tid, rd)
            old = rows[key] if key in rows else None
            rows[key] = _Row(sources, regs, rid)
            floor = self.floor
            if tid in floor:
                held = floor[tid]
                if rid is not None and (held is None or rid <= held):
                    floor[tid] = rid
                elif old is not None and held is not None and old.rid == held:
                    del floor[tid]
            self.absorbed_events += 1
            return []
        # Cannot track the merge: materialize the source rows so their
        # register metadata is live, then deliver the computation.
        out = self._flush_reg(tid, rs1)
        if rs2 != rs1:
            out.extend(self._flush_reg(tid, rs2))
        out.extend(self._flush_referencing(tid, rd))
        self._pop((tid, rd))
        out.append(("alu", record))
        return out

    def _process_store(self, record: Record) -> List[tuple]:
        tid = record.tid
        addr = record.addr
        size = record.size
        key = (tid, record.rs1)
        # The consuming register's row performs its deferred reads inside
        # the mem_inherit handler, *before* the write — so it need not be
        # pre-flushed, unless a source only partially overlaps the target
        # (the row would go stale after the write).
        skip = None
        row = self._rows.get(key)
        if row is not None:
            skip = key
            end = addr + size
            for source in row.sources:
                src_addr, src_size = source
                if (src_addr < end and addr < src_addr + src_size
                        and (src_addr != addr or src_size != size)):
                    skip = None
                    break
        out = self.flush_overlapping(addr, size, skip=skip)
        row = self._rows.get(key)
        if row is None:
            out.append(("store", record))
        else:
            out.append(("mem_inherit", addr, size, row.sources, row.regs,
                        record))
            self.delivered_condensed += 1
        return out

    def _passthrough(self, record: Record) -> List[tuple]:
        """IT disabled: every record becomes a plain delivered event."""
        return passthrough_events((record,))

    # -- flushing --------------------------------------------------------------

    def _flush_row(self, key: Tuple[int, int]) -> List[tuple]:
        row = self._pop(key)
        if row is None:
            return []
        self.row_flushes += 1
        tid, reg = key
        # Materializing this row *writes* reg's stored metadata, so rows
        # that reference reg's current value must materialize first (the
        # recursion terminates: each row is popped exactly once, and this
        # row is already out of the table).
        out = self._flush_referencing(tid, reg)
        out.append(("reg_inherit", tid, reg, row.sources, row.regs))
        return out

    def _flush_reg(self, tid: int, reg: int) -> List[tuple]:
        return self._flush_row((tid, reg))

    def _flush_referencing(self, tid: int, reg: int) -> List[tuple]:
        """Flush rows whose live-register terms reference ``reg``.

        Must run before any delivered handler writes ``reg``'s stored
        metadata — the referencing rows' deferred reads need the old
        value.
        """
        out: List[tuple] = []
        victims = [
            key
            for key, row in self._rows.items()
            if key[0] == tid and reg in row.regs
        ]
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_overlapping(self, addr: int, size: int, skip=None) -> List[tuple]:
        """Flush every row with an inherits-from range overlapping a write.

        ``skip`` names a row key whose flush is unnecessary because its
        deferred reads are delivered (and thus performed) by the very
        event doing the overwrite — the store that consumes it.
        """
        out: List[tuple] = []
        end = addr + size
        victims = []
        for key, row in self._rows.items():
            for src_addr, src_size in row.sources:
                if src_addr < end and addr < src_addr + src_size:
                    if key != skip:
                        victims.append(key)
                    break
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_all(self) -> List[tuple]:
        """Flush the whole table (dependence stall, CA record, threshold)."""
        out: List[tuple] = []
        if self._rows:
            self.full_flushes += 1
            # Rows referencing live registers must materialize before rows
            # *of* those registers would be replaced — but materialization
            # never changes register metadata, so any order is safe.
            for key in list(self._rows):
                out.extend(self._flush_row(key))
        return out

    def flush_rid_holding(self) -> List[tuple]:
        """Flush every row that pins a record id.

        This is the dependence-stall flush: it lets the thread publish
        fully accurate progress (deadlock freedom, Section 4.2) while
        preserving rows that cannot suffer remote conflicts — immediates
        and pure live-register rows reference no memory, so no remote
        event can invalidate them.
        """
        out: List[tuple] = []
        victims = [key for key, row in self._rows.items() if row.rid is not None]
        if victims:
            self.full_flushes += 1
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_stale(self, tid: int, rid_floor: int) -> List[tuple]:
        """Flush rows of ``tid`` holding RIDs below ``rid_floor``.

        The Section 4.2 threshold: long-lived rows (a loop-invariant
        register inheriting from memory) must not hold the advertised
        progress arbitrarily far behind.
        """
        out: List[tuple] = []
        victims = [
            key
            for key, row in self._rows.items()
            if key[0] == tid and row.rid is not None and row.rid < rid_floor
        ]
        for key in victims:
            out.extend(self._flush_row(key))
        return out

    def flush_thread(self, tid: int) -> List[tuple]:
        out: List[tuple] = []
        for key in [k for k in self._rows if k[0] == tid]:
            out.extend(self._flush_row(key))
        return out

    # -- delayed advertising ----------------------------------------------------

    def min_held_rid(self, tid: int) -> Optional[int]:
        """The smallest RID still cached for ``tid`` (None when nothing is).

        The thread's advertised progress must stay below this value —
        the delayed-advertising rule of Section 4.2. Served from the
        per-thread cache; only the first call after the row holding the
        floor left the table scans the rows.
        """
        held = self.floor.get(tid, _STALE)
        if held is _STALE:
            held = None
            for (row_tid, _reg), row in self._rows.items():
                rid = row.rid
                if (row_tid == tid and rid is not None
                        and (held is None or rid < held)):
                    held = rid
            self.floor[tid] = held
        return held

    @property
    def row_count(self) -> int:
        return len(self._rows)
