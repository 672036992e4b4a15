"""The lifeguard (consumer) core.

One :class:`LifeguardCore` consumes one event log. In parallel
monitoring it shadows a single application thread; in the time-sliced
baseline one instance sequentially consumes the interleaved multi-thread
log (in which case arcs never appear, CA barriers are disabled, and
progress is published accurately for containment only).

Responsibilities, in record order (Sections 4 and 5):

1. **Order enforcement** — an unmet arc ``(t, i)`` stalls the consumer
   until ``progress[t] >= i``. Entering *any* stall first flushes the
   accelerators and publishes accurate progress (the delayed-advertising
   deadlock-freedom rule).
2. **ConflictAlert barriers** — a CA_MARK record invalidates/flushes
   accelerator state per the lifeguard's configuration, *arrives* at the
   barrier and waits for the issuer to complete; the issuing thread's HL
   record waits for all arrivals before its handler runs.
3. **TSO versioning** — ``produce_versions`` snapshots metadata before
   the store handler; ``consume_version`` blocks until the version
   exists and delivers the load against it.
4. **Acceleration** — records flow through Inheritance Tracking (or its
   passthrough), delivered check events through the Idempotent Filter,
   and every metadata access through the M-TLB cost model plus a real
   simulated cache access.
5. **Delayed advertising** — published progress is
   ``min(RIDs held by IT/IF) - 1``, clamped by the processed RID, with a
   configurable lag threshold that forces a refresh flush.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.accel import IdempotentFilter, InheritanceTracking, MetadataTLB
from repro.capture.events import KIND_NAMES, Record, RecordKind
from repro.capture.log_buffer import LogBuffer
from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError
from repro.cpu.engine import CoreActor, Engine
from repro.lifeguards.base import Lifeguard, hl_phase_of
from repro.trace.writer import tracer_for

_FETCH, _ORDER, _PROCESS, _FINAL = range(4)

_CA_MARK = RecordKind.CA_MARK
_NOP = RecordKind.NOP
_HL_BEGIN = RecordKind.HL_BEGIN
_HL_END = RecordKind.HL_END


class LifeguardCore(CoreActor):
    """Consumes one event stream and runs one lifeguard thread."""

    def __init__(self, engine: Engine, name: str, core_id: int, tid: Optional[int],
                 log: LogBuffer, lifeguard: Lifeguard, memsys,
                 config: SimulationConfig, progress_table=None, ca_hub=None,
                 version_store=None, use_it: bool = True, use_if: bool = True,
                 use_mtlb: bool = True, enforce_arcs: Optional[bool] = None,
                 delayed_advertising: bool = True, faults=None, tracer=None):
        super().__init__(engine, name)
        self.core_id = core_id
        self.tid = tid  # None for the sequential (time-sliced) consumer
        self.log = log
        self.lifeguard = lifeguard
        self.memsys = memsys
        self.config = config
        self.costs = config.lifeguard_costs
        self._l1_latency = config.l1_config.access_latency
        # Hot-path hoists: chased once here instead of per record.
        self._arc_record_cost = self.costs.arc_record_cost
        self._dispatch_cost = self.costs.dispatch_cost
        self._advert_threshold = config.delayed_advertising_threshold
        self.progress_table = progress_table
        self.ca_hub = ca_hub
        self.version_store = version_store
        self.delayed_advertising = delayed_advertising
        #: Optional :class:`~repro.trace.TraceWriter`; this core emits
        #: ``engine`` retires, ``arc``/``ca`` stall details, ``advert``
        #: holds and ``meta`` writes, and hands the writer down to its
        #: accelerators for their ``accel`` events.
        self.tracer = tracer
        # The per-record emits, resolved once: None unless the writer
        # records their category, so a filtered one costs nothing.
        self._retire_tracer = tracer_for(tracer, "engine")
        self._advert_tracer = tracer_for(tracer, "advert")
        self._meta_tracer = tracer_for(tracer, "meta")

        self.it = InheritanceTracking(enabled=use_it and lifeguard.uses_it,
                                      tracer=tracer, owner=name)
        self.iff = IdempotentFilter(
            entries=config.if_entries,
            enabled=use_if and lifeguard.uses_if,
            track_rids=lifeguard.if_track_rids,
            tracer=tracer, owner=name,
        )
        self.mtlb = MetadataTLB(
            entries=config.mtlb_entries, costs=self.costs,
            enabled=use_mtlb and lifeguard.uses_mtlb,
            tracer=tracer, owner=name,
        )
        #: IT's per-record entry point, resolved once (see bound_process).
        self._it_process = self.it.bound_process()
        if enforce_arcs is None:
            enforce_arcs = lifeguard.needs_instruction_arcs
        self.enforce_arcs = enforce_arcs

        #: Optional :class:`~repro.faults.FaultPlan` armed at the
        #: ``lifeguard`` (stall/kill) and ``stall_flush`` (skip) sites.
        self.faults = faults
        self._killed = False
        self._phase = _FETCH
        self._rec: Optional[Record] = None
        self._processed: Dict[int, int] = {}
        self._stall_flushed = False
        self._ca_arrived = False
        self._last_record: Optional[Record] = None
        # Statistics
        self.records_processed = 0
        self.events_delivered = 0
        self.events_filtered = 0
        self.dependence_stalls = 0
        self.ca_stalls = 0
        #: Durations (cycles) of individual dependence/CA stalls — the
        #: paper reports the *median* of these for swaptions (Section 7).
        self.stall_durations = []
        self._stall_started = None

    # -- the state machine -----------------------------------------------------------
    #
    # The happy path — record available, order gates clear, no faults —
    # used to take three step() calls per record (FETCH, ORDER, PROCESS)
    # chained by zero-delay transitions. Those transitions are timing-
    # invisible (the trampoline loops them inline without touching the
    # event queue), so the phases are fused into one fall-through step;
    # ``_phase`` survives purely as the re-entry point after a blocking
    # return (ORDER resumes at the gate after a stall wake, PROCESS
    # resumes past the gate after a fault-injected delay).

    def step(self):
        phase = self._phase
        if phase == _FETCH:
            queue = self.log.queue  # LogBuffer.peek, inlined
            if not queue:
                if self.log.closed:
                    self._phase = _FINAL
                    return self._final_step()
                cost = self._stall_flush()
                if cost:
                    return ("delay", cost, "useful")
                return ("wait", self.log.not_empty,
                        "wait_application", "log empty")
            self._rec = queue[0]
            phase = _ORDER
        elif phase >= _FINAL:
            return self._final_step()

        if phase == _ORDER:
            record = self._rec
            # Only arcs, a consume-version or a ConflictAlert id can hold
            # a record back; every other record skips the gate.
            if (record.arcs or record.consume_version is not None
                    or record.ca_id is not None):
                blocked = self._order_gate(record)
                if blocked is not None:
                    self._phase = _ORDER
                    if blocked[0] == "wait" and self._stall_started is None:
                        self._stall_started = self.engine.now
                    return blocked
                if self._stall_started is not None:
                    self.stall_durations.append(
                        self.engine.now - self._stall_started)
                    self._stall_started = None

        if self.faults is not None:
            fault = self.faults.fire(
                "lifeguard", tid=self.tid, name=self.name,
                context=f"{self.name} at t{self._rec.tid}#{self._rec.rid}")
            if fault is not None:
                if fault.action == "kill":
                    # The core dies mid-stream: no drain, no final
                    # progress publish, no barrier arrivals — its
                    # consumers and producers are on their own.
                    self._killed = True
                    return ("done",)
                self._phase = _PROCESS
                return ("delay", max(1, fault.param or 10_000), "useful")
        record = self.log.pop()
        if record is not self._rec:
            raise SimulationError(f"{self.name}: log head changed underfoot")
        cycles = self._process_record(record)
        if record.ca_issuer and self.ca_hub is not None:
            self.ca_hub.mark_complete(record.ca_id)
        self._ca_arrived = False
        self._stall_flushed = False
        tid = record.tid
        rid = record.rid
        self._processed[tid] = rid
        self.records_processed += 1
        self._last_record = record
        engine = self.engine
        engine.last_retire = engine.now  # Engine.note_retire, inlined
        if self._retire_tracer is not None:
            self._retire_tracer.emit("engine", "retire", actor=self.name,
                                     tid=tid, rid=rid,
                                     kind=KIND_NAMES[record.kind])
        table = self.progress_table
        if table is not None:
            floor = self.it.floor
            if (not self.delayed_advertising
                    or (not self.iff.track_rids and tid in floor
                        and (floor[tid] is None or floor[tid] > rid))):
                # The advertised value is rid itself (what _publish
                # would compute, with no flush): advertising is not
                # delayed, or IT holds no RID <= rid for tid and the IF
                # tracks none.
                table.publish(tid, rid)
            else:
                cycles += self._publish(tid, rid)
        self._phase = _FETCH
        return ("delay", max(cycles, 1), "useful")

    @property
    def last_retired(self):
        """(tid, rid) of the most recently retired record, for crash
        reports (None until the first record retires)."""
        record = self._last_record
        return None if record is None else (record.tid, record.rid)

    def _final_step(self):
        if self._phase > _FINAL:
            return ("done",)
        cost = self._drain_accelerators()
        self._publish_accurate()
        if self.ca_hub is not None and self.tid is not None:
            self.ca_hub.lifeguard_exited(self.tid)
        if cost:
            self._phase = _FINAL + 1  # fall through to done next step
            return ("delay", cost, "useful")
        return ("done",)

    # -- ordering gates ----------------------------------------------------------------

    def _order_gate(self, record: Record):
        """Return a wait/delay action if the record may not be processed yet."""
        # 1. Instruction-level dependence arcs.
        if (record.arcs and self.enforce_arcs
                and self.progress_table is not None):
            unmet = self.progress_table.first_unmet(record.arcs)
            if unmet is not None:
                cost = self._stall_flush()
                if cost:
                    return ("delay", cost, "useful")
                self.dependence_stalls += 1
                if self.tracer is not None:
                    self.tracer.emit("arc", "stall", actor=self.name,
                                     tid=record.tid, rid=record.rid,
                                     src_tid=unmet[0], src_rid=unmet[1])
                return ("wait", self.progress_table.condition(unmet[0]),
                        "wait_dependence", f"arc (t{unmet[0]},#{unmet[1]})")

        # 2. TSO consume-version.
        if record.consume_version is not None and self.version_store is not None:
            version_id = record.consume_version[0]
            if not self.version_store.available(version_id):
                cost = self._stall_flush()
                if cost:
                    return ("delay", cost, "useful")
                self.dependence_stalls += 1
                if self.tracer is not None:
                    self.tracer.emit("arc", "version_stall", actor=self.name,
                                     tid=record.tid, rid=record.rid,
                                     version=version_id)
                return ("wait", self.version_store.condition(version_id),
                        "wait_dependence", f"version {version_id}")

        # 3. ConflictAlert barrier: participant side.
        if record.kind == _CA_MARK and self.ca_hub is not None:
            state = self.ca_hub.state(record.ca_id)
            if not self._ca_arrived:
                cost = self._accel_conflict_flush(record)
                self.ca_hub.lifeguard_arrive(record.ca_id,
                                             self.tid if self.tid is not None
                                             else record.tid)
                self._ca_arrived = True
                if cost:
                    return ("delay", cost, "useful")
            if not state.complete:
                cost = self._stall_flush()
                if cost:
                    return ("delay", cost, "useful")
                self.ca_stalls += 1
                if self.tracer is not None:
                    self.tracer.emit("ca", "stall", actor=self.name,
                                     ca=record.ca_id, side="completion")
                return ("wait", state.complete_cond,
                        "wait_dependence", f"CA#{record.ca_id} completion")

        # 4. ConflictAlert barrier: issuer side.
        if (record.ca_id is not None and record.ca_issuer
                and self.ca_hub is not None):
            state = self.ca_hub.state(record.ca_id)
            if not state.all_arrived:
                cost = self._stall_flush()
                if cost:
                    return ("delay", cost, "useful")
                self.ca_stalls += 1
                if self.tracer is not None:
                    self.tracer.emit("ca", "stall", actor=self.name,
                                     ca=record.ca_id, side="arrivals")
                return ("wait", state.all_arrived_cond,
                        "wait_dependence", f"CA#{record.ca_id} arrivals")
        return None

    # -- record processing ------------------------------------------------------------------

    def _process_record(self, record: Record) -> int:
        cost = self._arc_record_cost * (1 + len(record.arcs or ()))
        latency = 0

        if record.produce_versions and self.version_store is not None:
            for version_id, addr, length in record.produce_versions:
                snapshot = self.lifeguard.snapshot_metadata(addr, length)
                self.version_store.produce(version_id, addr, length, snapshot)
                cost += 4 + length // 16
                if self.tracer is not None:
                    self.tracer.emit("arc", "version_produce",
                                     actor=self.name, tid=record.tid,
                                     rid=record.rid, version=version_id,
                                     addr=addr, size=length)

        kind = record.kind
        if kind == _CA_MARK:
            return cost + 1

        if kind == _NOP:
            return cost

        if (record.critical_kind == "allocator" and record.is_memory
                and not self.lifeguard.monitors_allocator_internals):
            # Wrapper-library bookkeeping accesses are unmonitored for
            # heap checkers (Valgrind-style replacement malloc): they
            # bypass the accelerators and the handlers entirely.
            return cost

        if kind == _HL_BEGIN or kind == _HL_END:
            # High-level events conflict with accelerator state *locally*
            # too (Section 4.1's MEMCHECK example): apply the lifeguard's
            # configured flushes before the event's handler runs.
            cost += self._accel_conflict_flush(record)

        lifeguard = self.lifeguard
        handlers = lifeguard.handlers
        delivery_range = lifeguard.delivery_range
        iff = self.iff
        dispatch_cost = self._dispatch_cost
        for event in self._it_process(record):
            kind = event[0]
            handler = handlers.get(record.hl_kind if kind == "hl" else kind)
            if handler is None:
                continue  # no handler registered: hardware drops the event
            if (delivery_range is not None and kind != "hl"
                    and not delivery_range[0] <= record.addr < delivery_range[1]):
                continue  # outside the delivery address-range filter
            if kind == "load_versioned" and len(event) == 2:
                version = self.version_store.consume(record.consume_version[0])
                event = ("load_versioned", event[1],
                         (version[0], version[1], version[2]))
                if self.tracer is not None:
                    self.tracer.emit("arc", "version_consume",
                                     actor=self.name, tid=record.tid,
                                     rid=record.rid,
                                     version=record.consume_version[0])
            key = lifeguard.if_key(event)
            if key is not None and iff.check(key, record.rid):
                self.events_filtered += 1
                continue
            if (lifeguard.if_invalidate_on_write and record.is_write
                    and record.addr is not None):
                iff.invalidate_overlapping(record.addr, record.size)
            handler_cost, accesses = handler(event)
            cost += dispatch_cost + handler_cost
            self.events_delivered += 1
            if accesses:
                latency += self._metadata_access_cycles(accesses)
        return cost + latency

    def _metadata_access_cycles(self, accesses) -> int:
        """Charge M-TLB lookups plus the metadata cache latency.

        One cycle of each access overlaps with the handler's own
        instruction (already costed); only the excess latency stalls the
        in-order lifeguard core.
        """
        cycles = 0
        tracer = self._meta_tracer
        lookup_cost = self.mtlb.lookup_cost
        sim_accesses = self.lifeguard.metadata.sim_accesses
        mem_access = self.memsys.access
        core_id = self.core_id
        l1_latency = self._l1_latency
        for app_addr, size, is_write in accesses:
            if is_write and tracer is not None:
                tracer.emit("meta", "write", actor=self.name,
                            addr=app_addr, size=size)
            cycles += lookup_cost(app_addr)
            for sim_addr, sim_size, sim_write in sim_accesses(app_addr, size,
                                                              is_write):
                access = mem_access(core_id, sim_addr, sim_size, sim_write, 0)
                # An L1 hit fully pipelines behind the handler's own
                # instruction; only miss latency stalls the core.
                latency = access.latency - l1_latency
                if latency > 0:
                    cycles += latency
        return cycles

    # -- accelerator flushing ------------------------------------------------------------------

    def _deliver_flushed(self, events) -> int:
        """Process events forced out of an accelerator; returns their cost."""
        cost = 0
        handlers = self.lifeguard.handlers
        for event in events:
            # Flushed IT rows arrive as ``reg_inherit`` events, which
            # every lifeguard that uses IT registers.
            handler_cost, accesses = handlers[event[0]](event)
            cost += self.costs.it_flush_row_cost + handler_cost
            self.events_delivered += 1
            cost += self._metadata_access_cycles(accesses)
        return cost

    def _stall_flush(self) -> int:
        """Before any stall: flush RID-holding accelerator state once and
        publish accurate progress (the deadlock-freedom rule)."""
        if self._stall_flushed:
            return 0
        self._stall_flushed = True
        if self.faults is not None:
            fault = self.faults.fire(
                "stall_flush", tid=self.tid, name=self.name,
                context=f"{self.name} stall flush")
            if fault is not None:
                return 0  # "skip": violate the deadlock-freedom rule
        cost = self._deliver_flushed(self.it.flush_rid_holding())
        if self.iff.track_rids:
            self.iff.invalidate_all()
        self._publish_accurate()
        return cost

    def _accel_conflict_flush(self, record: Record) -> int:
        """Apply the lifeguard's configured accelerator response to a
        high-level conflicting event — a received CA_MARK, or the
        thread's own HL record (local conflicts flush the same state)."""
        subscription = (record.hl_kind, hl_phase_of(record))
        cost = 1
        lifeguard = self.lifeguard
        if subscription in lifeguard.ca_flush_it:
            cost += self._deliver_flushed(self.it.flush_all())
        if subscription in lifeguard.ca_invalidate_if:
            self.iff.invalidate_all()
        if subscription in lifeguard.ca_flush_mtlb:
            self.mtlb.flush()
        return cost

    def _drain_accelerators(self) -> int:
        return self._deliver_flushed(self.it.flush_all())

    # -- progress publication -----------------------------------------------------------------------

    def _publish(self, tid: int, processed: int) -> int:
        """Publish delayed progress for ``tid``, whose last processed RID
        is ``processed``, while an accelerator may hold RIDs back;
        returns the flush cost."""
        cost = 0
        advertised = self._advertise_target(tid, processed)
        threshold = self._advert_threshold
        if threshold and processed - advertised > threshold:
            if self._advert_tracer is not None:
                self._advert_tracer.emit(
                    "advert", "refresh_flush", actor=self.name, tid=tid,
                    processed=processed, advertised=advertised)
            cost = self._deliver_flushed(
                self.it.flush_stale(tid, processed - threshold + 1))
            if self.iff.track_rids:
                self.iff.invalidate_all()
            advertised = self._advertise_target(tid, processed)
        elif advertised < processed and self._advert_tracer is not None:
            # Delayed advertising is holding back RIDs still cached in
            # an accelerator — the Section 4.2 contract made visible.
            self._advert_tracer.emit(
                "advert", "hold", actor=self.name, tid=tid,
                processed=processed, advertised=advertised)
        self.progress_table.publish(tid, advertised)
        return cost

    def _advertise_target(self, tid: int, processed: int) -> int:
        """``min(RIDs held by IT/IF) - 1``, clamped by ``processed``."""
        held = self.it.min_held_rid(tid)
        if self.iff.track_rids:
            if_min = self.iff.min_held_rid()
            if if_min is not None and (held is None or if_min < held):
                held = if_min
        if held is None or held > processed:
            return processed
        return held - 1

    def _publish_accurate(self) -> None:
        if self.progress_table is None:
            return
        for tid, rid in self._processed.items():
            self.progress_table.publish(tid, rid)

    def on_finish(self) -> None:
        if self._killed:
            return  # a killed core advertises nothing post-mortem
        self._publish_accurate()
