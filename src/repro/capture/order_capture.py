"""Per-thread order capture (Section 5.1).

Each application thread owns an ``OrderCapture`` component that

* assigns dense per-thread record ids (the retired-instruction counter),
* converts coherence :class:`~repro.memory.coherence.Conflict` sources
  into dependence arcs ``(src_tid, src_rid)`` — per-block tags in
  aggressive mode, the source core's *current* counter in the reduced-
  hardware per-core mode,
* applies RTR-style transitive reduction with a per-source "last
  received" vector (an arc already implied by an earlier arc from the
  same thread is dropped, since the consumer processes records in
  order),
* buffers records until they are *final* (under TSO a store's arcs are
  only known at store-buffer drain) and commits them, in order, to the
  thread's log buffer.

A record also receives a ``commit_time`` stamp from the run's commit
clock (one ``itertools.count(1)`` shared by every thread of the run) at
the moment it becomes globally ordered (its coherence access), giving
the oracle a faithful sequential linearization to replay against. Each
run's stamps are exactly 1..N, whatever ran before it in the process.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, Optional

from repro.capture.events import (
    _BASE_RECORD_BYTES,
    _HIGHLEVEL_KINDS,
    Record,
    RecordKind,
    RecordSource,
    recaptured,
    record_size_bytes,
)
from repro.capture.log_buffer import LogBuffer
from repro.common.config import CaptureMode, SimulationConfig


class OrderCapture(RecordSource):
    """Order-capture hardware for one application thread."""

    def __init__(self, tid: int, config: SimulationConfig, log: LogBuffer,
                 core_to_tid: Dict[int, int], current_rids: Dict[int, int],
                 clock: Iterator[int], trace: Optional[list] = None,
                 faults=None, tracer=None):
        self.tid = tid
        self.config = config
        self.log = log
        #: Optional :class:`~repro.faults.FaultPlan` armed at the ``arc``
        #: site; None (the default) leaves capture completely untouched.
        self.faults = faults
        # The ``arc`` publish/reduced emitters of an optional
        # :class:`~repro.trace.TraceWriter` (None unless it records
        # them).
        self._publish_emit = self._reduced_emit = None
        if tracer is not None:
            arc_fields = ("tid", "rid", "src_tid", "src_rid")
            self._publish_emit = tracer.prepare("arc", "publish", arc_fields)
            self._reduced_emit = tracer.prepare("arc", "reduced", arc_fields)
        #: Maps a physical core id to the application tid pinned on it,
        #: used to translate coherence conflicts into thread-level arcs.
        self.core_to_tid = core_to_tid
        #: Shared view of every thread's last retired RID (per-core mode).
        self.current_rids = current_rids
        self.current_rids.setdefault(tid, 0)
        #: The run's commit clock, shared by every thread's capture.
        self.clock = clock
        self._last_recv: Dict[int, int] = {}
        #: Retired records awaiting in-order commit to the log.
        self._pending = deque()
        #: The pending TSO stores whose arcs are not known yet (drain
        #: finalizes them). Empty under SC, so a flush there only
        #: checks that this set is empty.
        self._unfinalized = set()
        self._trace = trace
        #: :meth:`flush` may append to a plain log inline.
        self._inline_commit = log.plain
        #: The store record currently being drained (TSO versioning hook).
        self.draining_record: Optional[Record] = None
        # Statistics
        self.arcs_recorded = 0
        self.arcs_reduced = 0

    # -- arcs ----------------------------------------------------------------------

    def attach_conflicts(self, record: Record, conflicts) -> None:
        """Turn coherence conflicts into (reduced) dependence arcs."""
        for conflict in conflicts:
            src_tid = self.core_to_tid.get(conflict.core)
            if src_tid is None or src_tid == self.tid:
                continue
            if self.config.capture_mode is CaptureMode.PER_BLOCK:
                src_rid = conflict.rid
            else:
                src_rid = self.current_rids.get(src_tid, 0)
            if self.faults is not None:
                fault = self.faults.fire(
                    "arc", tid=self.tid,
                    context=f"arc (t{src_tid},#{src_rid}) -> t{self.tid}")
                if fault is not None:
                    if fault.action == "drop":
                        continue
                    # "corrupt": skew the source RID forward so the
                    # consumer waits on a record that may never exist.
                    src_rid += max(1, fault.param)
            if self.config.transitive_reduction:
                if self._last_recv.get(src_tid, -1) >= src_rid:
                    self.arcs_reduced += 1
                    if self._trace is not None:
                        # keep_trace runs retain the dropped arc so the
                        # archive writer can price the naive encoding.
                        record.add_reduced_arc(src_tid, src_rid)
                    if self._reduced_emit is not None:
                        self._reduced_emit(self.tid, record.rid, src_tid,
                                           src_rid)
                    continue
                self._last_recv[src_tid] = src_rid
            record.add_arc(src_tid, src_rid)
            self.arcs_recorded += 1
            if self._publish_emit is not None:
                self._publish_emit(self.tid, record.rid, src_tid, src_rid)

    def attach_to_last(self, conflicts) -> None:
        """:meth:`attach_conflicts` on the record :meth:`retire` just queued."""
        self.attach_conflicts(self._pending[-1], conflicts)

    # -- pending queue / commit --------------------------------------------------

    def retire(self, record: Record) -> int:
        """Stamp and queue a retiring record that is final at retirement;
        returns its RID.

        This is :meth:`~RecordSource.begin_record` followed by
        :meth:`enqueue`, in one call: the execute path of every record
        that is final at retirement and whose commit time no other
        record's can precede (not an HL record, whose ConflictAlert
        marks are stamped first, and not a TSO load or store).
        """
        tid = self.tid
        if record.rid is not None:
            raise recaptured(tid, record)
        current_rids = self.current_rids
        rid = current_rids[tid] + 1
        current_rids[tid] = rid
        record.tid = tid
        record.rid = rid
        record.commit_time = next(self.clock)
        self._pending.append(record)
        return rid

    def enqueue(self, record: Record, finalized: bool = True) -> None:
        """Queue a retired record for in-order commit to the log."""
        if finalized:
            record.commit_time = next(self.clock)
        else:
            self._unfinalized.add(record)
        self._pending.append(record)

    def finalize_store(self, record: Record, conflicts) -> None:
        """TSO: a buffered store drained; its arcs are now known."""
        if record not in self._unfinalized:
            # Already flushed records cannot be finalized late; enqueue
            # order guarantees it is pending, so reaching here is a bug.
            raise AssertionError("finalize_store: record not pending")
        self._unfinalized.remove(record)
        self.attach_conflicts(record, conflicts)
        record.commit_time = next(self.clock)

    def flush(self) -> bool:
        """Commit the finalized prefix of the pending queue to the log.

        Returns False if a finalized record did not fit (log full) — the
        caller must wait on ``log.not_full`` and retry.
        """
        pending = self._pending
        unfinalized = self._unfinalized
        if self._inline_commit and not unfinalized:
            # LogBuffer.try_append on a plain log, inlined: every
            # pending record is final, and the common 1-byte record is
            # sized without a call.
            log = self.log
            queue = log.queue
            sizes = log._sizes
            trace = self._trace
            while pending:
                record = pending[0]
                if (record.arcs or record.kind in _HIGHLEVEL_KINDS
                        or record.consume_version is not None
                        or record.produce_versions):
                    size = record_size_bytes(record)
                else:
                    size = _BASE_RECORD_BYTES
                occupied = log._occupied_bytes + size
                if occupied > log.capacity_bytes:
                    return False
                queue.append(record)
                sizes.append(size)
                log._occupied_bytes = occupied
                log.total_records += 1
                log.total_bytes += size
                if occupied > log.peak_bytes:
                    log.peak_bytes = occupied
                if log.not_empty.waiters:
                    log.not_empty.notify_all(log.engine)
                if trace is not None:
                    trace.append(record)
                pending.popleft()
            return True
        try_append = self.log.try_append
        trace = self._trace
        while pending:
            record = pending[0]
            if unfinalized and record in unfinalized:
                return True
            if not try_append(record):
                return False
            if trace is not None:
                trace.append(record)
            pending.popleft()
        return True

    @property
    def fully_committed(self) -> bool:
        return not self._pending

    def has_unfinalized_before(self, record: Record) -> bool:
        """Is any record older than ``record`` still awaiting its arcs?

        Used by the TSO ConflictAlert fence: the issuer may not proceed
        past its high-level event until every participant's pre-mark
        stores have drained (their arcs can otherwise point past the
        barrier and deadlock the consumers).
        """
        unfinalized = self._unfinalized
        if not unfinalized:
            return False
        for pending_record in self._pending:
            if pending_record is record:
                return False
            if pending_record in unfinalized:
                return True
        return False

    def pending_unfinalized_stores(self) -> int:
        return len(self._unfinalized)

    # -- TSO versioning support ----------------------------------------------------

    def find_pending_load(self, line: int, line_bytes: int) -> Optional[Record]:
        """Newest pending LOAD record touching ``line`` (annotation target)."""
        for record in reversed(self._pending):
            if (record.kind == RecordKind.LOAD
                    and record.addr is not None
                    and record.addr // line_bytes == line):
                return record
        return None

    # -- ConflictAlert record injection ----------------------------------------------

    def insert_ca_record(self, ca_id: int, hl_kind, phase_kind: RecordKind,
                         ranges, issuer_tid: int) -> Record:
        """Receive a broadcast: append a CA_MARK record to this stream."""
        rid = self.current_rids[self.tid] + 1
        self.current_rids[self.tid] = rid
        # critical_kind remembers which phase of the high-level event
        # this mark mirrors.
        record = Record(
            self.tid, rid, RecordKind.CA_MARK, hl_kind=hl_kind,
            ranges=tuple(ranges or ()),
            critical_kind=("begin" if phase_kind == RecordKind.HL_BEGIN
                           else "end"))
        record.ca_id = ca_id
        self.enqueue(record, finalized=True)
        return record
