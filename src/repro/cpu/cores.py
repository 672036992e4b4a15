"""Application-side actors: application cores and TSO store buffers.

These are state machines the discrete-event engine drives. An
:class:`AppCore` runs one or more application threads' micro-op
streams: one thread per core under parallel monitoring and unmonitored
runs, every thread round robin on one core under the time-sliced
baseline. It performs timed coherent memory accesses, captures event
records (with arcs), broadcasts ConflictAlerts, honours system-call
containment and stalls when its log buffer fills. Under TSO a
:class:`StoreBufferDrainActor` drains each core's
:class:`TsoStoreBuffer`. The consumer side,
:class:`~repro.cpu.lifeguard_core.LifeguardCore`, lives in
:mod:`repro.cpu.lifeguard_core`.

Time-bucket names (Figure 7): application cores charge ``execute`` /
``wait_log`` / ``wait_containment``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional

from repro.capture.events import Record, RecordKind, RecordSource, recaptured
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.capture.tso import StoreBufferEntry
from repro.common.config import SimulationConfig
from repro.cpu.engine import Condition, CoreActor, Engine
from repro.isa.instructions import HLPhase, thread_exit


class MonitoringHooks:
    """Platform services injected into application cores."""

    def __init__(self, ca_hub=None, ca_subscriptions: FrozenSet = frozenset(),
                 progress_table=None, containment_kinds: FrozenSet = frozenset(),
                 store_buffers: Optional[Dict[int, "TsoStoreBuffer"]] = None):
        self.ca_hub = ca_hub
        self.ca_subscriptions = ca_subscriptions
        self.progress_table = progress_table
        self.containment_kinds = containment_kinds
        #: tid -> TsoStoreBuffer (TSO runs only); used by the CA fence.
        #: The platform may pass an (initially empty) dict it fills later.
        self.store_buffers = store_buffers if store_buffers is not None else {}


class NullCapture(RecordSource):
    """Capture stand-in for unmonitored runs: stamps records, keeps none."""

    __slots__ = ("fully_committed", "draining_record")

    def __init__(self, tid: int):
        super().__init__(tid, {tid: 0})
        self.fully_committed = True
        self.draining_record = None

    def retire(self, record) -> int:
        """Stamp one retiring record (:meth:`begin_record`, inlined) and
        drop it; returns its RID."""
        tid = self.tid
        if record.rid is not None:
            raise recaptured(tid, record)
        rid = self.current_rids[tid] + 1
        self.current_rids[tid] = rid
        record.tid = tid
        record.rid = rid
        return rid

    def attach_conflicts(self, record, conflicts) -> None:
        pass

    def attach_to_last(self, conflicts) -> None:
        pass

    def enqueue(self, record, finalized: bool = True) -> None:
        pass

    def finalize_store(self, record, conflicts) -> None:
        pass

    def find_pending_load(self, line, line_bytes):
        return None

    def flush(self) -> bool:
        return True


class TsoStoreBuffer:
    """Per-core FIFO store buffer with drain/forwarding support."""

    __slots__ = ("engine", "capacity", "entries", "not_full", "not_empty",
                 "empty_cond", "closed")

    def __init__(self, engine: Engine, capacity: int, name: str):
        self.engine = engine
        self.capacity = capacity
        self.entries = deque()
        self.not_full = Condition(f"{name}.sb_not_full")
        self.not_empty = Condition(f"{name}.sb_not_empty")
        self.empty_cond = Condition(f"{name}.sb_empty")
        self.closed = False

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.entries

    def push(self, entry: StoreBufferEntry) -> None:
        self.entries.append(entry)
        if self.not_empty.waiters:
            self.not_empty.notify_all(self.engine)

    def pop(self) -> StoreBufferEntry:
        entry = self.entries.popleft()
        if self.not_full.waiters:
            self.not_full.notify_all(self.engine)
        if not self.entries and self.empty_cond.waiters:
            self.empty_cond.notify_all(self.engine)
        return entry

    def forward_value(self, addr: int, size: int) -> Optional[int]:
        """Newest exact-match buffered value, if any."""
        for entry in reversed(self.entries):
            if entry.forwards(addr, size):
                return entry.value
        return None

    def overlaps(self, addr: int, size: int) -> bool:
        return any(entry.overlaps(addr, size) for entry in self.entries)

    def close(self) -> None:
        self.closed = True
        self.not_empty.notify_all(self.engine)


_FETCH, _EXECUTE, _COMMIT, _FINISH = range(4)

_LOAD = RecordKind.LOAD
_STORE = RecordKind.STORE
_RMW = RecordKind.RMW
_NOP = RecordKind.NOP
_HL_BEGIN = RecordKind.HL_BEGIN
_HL_END = RecordKind.HL_END
_THREAD_EXIT = RecordKind.THREAD_EXIT

#: Kinds whose execution :meth:`AppCore.step` does not inline: a
#: ConflictAlert broadcast stamps its marks before the HL record, and a
#: thread exit leaves the CA hub. Under TSO loads and stores go to
#: :meth:`AppCore._execute` too (store buffer forwarding and pushes).
_OUT_OF_LINE = frozenset({_HL_BEGIN, _HL_END, _THREAD_EXIT})
_TSO_OUT_OF_LINE = _OUT_OF_LINE | {_LOAD, _STORE}
_MEMORY = frozenset({_LOAD, _STORE, _RMW})


class ThreadContext:
    """One application thread's state on an :class:`AppCore`: what a
    context switch saves and restores."""

    __slots__ = ("tid", "capture", "gen", "result", "exiting",
                 "containment_rid")

    def __init__(self, tid: int, program, capture):
        self.tid = tid
        self.capture = capture
        self.gen = program
        #: The value the thread's last op produced, sent on its resume
        #: (``send(None)`` also starts a fresh generator).
        self.result = None
        self.exiting = False
        #: RID of a retired containment system call the thread may not
        #: run past until its lifeguard has processed it.
        self.containment_rid: Optional[int] = None


class AppCore(CoreActor):
    """One application core running one or more thread contexts.

    Parallel and unmonitored runs give each core one thread. The
    time-sliced baseline gives one core every thread: they share its L1,
    so no coherence traffic (and no dependence arc) crosses them, and the
    interleaved log itself is the total order. Threads take turns round
    robin, each for up to :attr:`SimulationConfig.timeslice_quantum`
    instructions; a switch costs
    :attr:`SimulationConfig.context_switch_cycles`. With one thread the
    scheduler always picks it again, so it never switches.
    """

    delay_bucket = "execute"

    def __init__(self, engine: Engine, name: str, core_id: int,
                 programs: Dict[int, object], captures: Dict[int, object],
                 memsys, memory, config: SimulationConfig,
                 hooks: MonitoringHooks, log: Optional[LogBuffer] = None,
                 store_buffer: Optional[TsoStoreBuffer] = None):
        super().__init__(engine, name)
        self.core_id = core_id
        self.memsys = memsys
        self.memory = memory
        self.config = config
        self.hooks = hooks
        self.log = log
        self.store_buffer = store_buffer
        self._contexts: List[ThreadContext] = [
            ThreadContext(tid, programs[tid], captures[tid])
            for tid in sorted(programs)]
        self._ctx = self._contexts[0]
        #: The running thread's capture (the hot path reads it directly).
        self.capture = self._ctx.capture
        self._quantum = config.timeslice_quantum
        #: The running thread keeps the core until this many retired
        #: instructions; a yield or a deschedule sets it to 0.
        self._slice_end = self._quantum
        self._op = None
        self._ca_fence = None  # [(tid, capture, mark record)] to drain past
        self._phase = _FETCH
        #: The op kinds :meth:`step` hands to :meth:`_execute`.
        self._out_of_line = (_OUT_OF_LINE if store_buffer is None
                             else _TSO_OUT_OF_LINE)
        self.instructions_retired = 0
        self.context_switches = 0

    # -- scheduling ---------------------------------------------------------------

    def _runnable(self, ctx: ThreadContext) -> bool:
        if ctx.containment_rid is not None:
            table = self.hooks.progress_table
            if table is not None and table.get(ctx.tid) < ctx.containment_rid:
                return False
            ctx.containment_rid = None
        return True

    def _pick_thread(self) -> Optional[ThreadContext]:
        """The next runnable context after the running one (round robin),
        or None when no thread can run."""
        live = [ctx for ctx in self._contexts if not ctx.exiting]
        if not live:
            return None
        current = self._ctx
        current_live = current in live
        start = live.index(current) if current_live else 0
        # Offset 0 is the running thread only while it is live; an
        # exited one leaves offset 0 to the next live thread.
        skip_current = current_live and (
            self.instructions_retired >= self._slice_end)
        for offset in range(len(live)):
            ctx = live[(start + offset) % len(live)]
            if offset == 0 and skip_current:
                continue  # quantum expired: prefer someone else
            if self._runnable(ctx):
                return ctx
        # Quantum expired but nobody else is runnable: keep running current.
        if current_live and self._runnable(current):
            self._slice_end = self.instructions_retired + self._quantum
            return current
        return None

    def _idle_step(self):
        """No thread can run: finish once every thread has exited, else
        wait on the progress of the first contained live thread (the
        first live thread when none is contained)."""
        live = [ctx for ctx in self._contexts if not ctx.exiting]
        if not live:
            self._phase = _FINISH
            return self._finish_step()
        blocked = [ctx for ctx in live if ctx.containment_rid is not None]
        tid = (blocked or live)[0].tid
        return ("wait", self.hooks.progress_table.condition(tid),
                "wait_containment", "syscall containment")

    # -- the state machine ----------------------------------------------------------
    #
    # The steady-state instruction loop — commit the previous record,
    # fetch the next op, execute it — used to take three step() calls
    # chained by zero-delay transitions; only EXECUTE's latency is a real
    # delay. The phases are fused into one fall-through step and
    # ``_phase`` survives as the re-entry point after a blocking return
    # (COMMIT resumes at the flush after a log-full wake, FETCH at the
    # fence/containment gates, EXECUTE at the TSO pre-stalls and after a
    # context switch's delay). While the running thread is live,
    # uncontained and inside its quantum it keeps the core without a
    # call to the scheduler: exactly what ``_pick_thread`` would decide.

    def step(self):
        phase = self._phase
        if phase == _COMMIT:
            # An unmonitored core has no log, so nothing to commit.
            if self.log is not None and not self.capture.flush():
                return ("wait", self.log.not_full, "wait_log", "log full")
            self._phase = phase = _FETCH
        elif phase == _FINISH:
            return self._finish_step()

        if phase == _FETCH:
            if self._ca_fence is not None:
                fence_wait = self._ca_fence_gate()
                if fence_wait is not None:
                    return fence_wait
            ctx = self._ctx
            switch_cost = 0
            if (ctx.exiting or ctx.containment_rid is not None
                    or self.instructions_retired >= self._slice_end):
                picked = self._pick_thread()
                if picked is None:
                    return self._idle_step()
                if picked is not ctx:
                    switch_cost = self.config.context_switch_cycles
                    self.context_switches += 1
                    self._ctx = ctx = picked
                    self.capture = ctx.capture
                    self._slice_end = self.instructions_retired + self._quantum
            try:
                self._op = ctx.gen.send(ctx.result)
            except StopIteration:
                ctx.exiting = True
                self._op = thread_exit()
            ctx.result = None
            self._phase = _EXECUTE
            if switch_cost:
                return switch_cost

        if self.store_buffer is not None:
            stall = self._tso_pre_stall()
            if stall is not None:
                return stall
        op = self._op
        kind = op.kind
        if kind in self._out_of_line:
            latency = self._execute()
        else:
            # The execute path of every other record, inlined: one
            # capture call queues the stamped record (a conflict-free
            # access, every L1 hit, has no arcs to attach).
            capture = self.capture
            rid = capture.retire(op)
            latency = 1
            if kind in _MEMORY:
                result = self.memsys.access(self.core_id, op.addr, op.size,
                                            kind != _LOAD, rid)
                if result.conflicts:
                    capture.attach_to_last(result.conflicts)
                latency = result.latency
                if kind == _LOAD:
                    self._ctx.result = self.memory.read(op.addr, op.size)
                elif kind == _STORE:
                    self.memory.write(op.addr, op.size, op.value)
                else:
                    self._ctx.result = self.memory.read(op.addr, op.size)
                    self.memory.write(op.addr, op.size, op.value)
                    latency += 2  # atomic read-modify-write penalty
            elif kind == _NOP and op.value:
                latency = op.value
                if latency > 1:
                    # A spin-wait pause yields the core (pthread
                    # spin-then-block): spinning out a whole quantum
                    # would hold up the thread it waits for.
                    self._slice_end = 0
        self.instructions_retired += 1
        engine = self.engine
        engine.last_retire = engine.now  # Engine.note_retire, inlined
        self._phase = _COMMIT
        return latency

    def _finish_step(self):
        if self.store_buffer is not None:
            self.store_buffer.close()
            if not self.store_buffer.empty:
                return ("wait", self.store_buffer.empty_cond,
                        "wait_log", "draining store buffer")
        for ctx in self._contexts:
            if not ctx.capture.flush():
                return ("wait", self.log.not_full, "wait_log", "final flush")
        if self.log is not None:
            self.log.close()
        return ("done",)

    # -- TSO pre-execution stalls -----------------------------------------------------

    def _ca_fence_gate(self):
        """After a CA broadcast under TSO, wait until every participant's
        pre-mark stores drained: their arcs must not point past the
        barrier (a cross-barrier arc would deadlock the lifeguards)."""
        if not self._ca_fence:
            self._ca_fence = None
            return None
        remaining = [
            (tid, capture, mark)
            for tid, capture, mark in self._ca_fence
            if capture.has_unfinalized_before(mark)
        ]
        self._ca_fence = remaining or None
        if not remaining:
            return None
        tid = remaining[0][0]
        buffer = self.hooks.store_buffers.get(tid)
        if buffer is None:
            return None  # SC participant: nothing can be unfinalized
        # not_full fires on every drain pop, so this re-checks steadily.
        return ("wait", buffer.not_full, "execute", f"CA fence on t{tid}")

    def _tso_pre_stall(self):
        """The store-buffer stalls (called only when a buffer exists)."""
        buffer = self.store_buffer
        op = self._op
        kind = op.kind
        if kind == _STORE and buffer.full:
            return ("wait", buffer.not_full, "execute", "store buffer full")
        if kind == _RMW and not buffer.empty:
            return ("wait", buffer.empty_cond, "execute", "RMW fence")
        if ((kind == _HL_BEGIN or kind == _HL_END)
                and not buffer.empty and self._will_broadcast(op)):
            # A CA broadcast is a serializing event: the issuer's own
            # buffered stores must drain first so all its pre-event arcs
            # exist before the marks are inserted.
            return ("wait", buffer.empty_cond, "execute", "CA serialize")
        if (kind == _LOAD and buffer.overlaps(op.addr, op.size)
                and buffer.forward_value(op.addr, op.size) is None):
            return ("wait", buffer.empty_cond, "execute", "partial forward")
        return None

    def _will_broadcast(self, record: Record) -> bool:
        if self.hooks.ca_hub is None or record.value == 1:
            return False
        phase = HLPhase.BEGIN if record.kind == _HL_BEGIN else HLPhase.END
        return (record.hl_kind, phase) in self.hooks.ca_subscriptions

    # -- execution ------------------------------------------------------------------------

    def _execute(self) -> int:
        """Execute an HL record, a thread exit, or a TSO load or store."""
        capture = self.capture
        record = capture.begin_record(self._op)
        kind = record.kind
        latency = 1

        if kind == _LOAD:
            addr, size = record.addr, record.size
            forwarded = self.store_buffer.forward_value(addr, size)
            if forwarded is not None:
                self._ctx.result = forwarded
            else:
                result = self.memsys.access(self.core_id, addr, size,
                                            False, record.rid)
                if result.conflicts:
                    capture.attach_conflicts(record, result.conflicts)
                self._ctx.result = self.memory.read(addr, size)
                latency = result.latency
            capture.enqueue(record)

        elif kind == _STORE:
            capture.enqueue(record, finalized=False)
            self.store_buffer.push(StoreBufferEntry(
                record.addr, record.size, record.value, record))

        elif kind == _HL_BEGIN or kind == _HL_END:
            latency = 1 + self._maybe_broadcast(record)
            capture.enqueue(record)
            if (kind == _HL_BEGIN
                    and record.hl_kind in self.hooks.containment_kinds):
                self._ctx.containment_rid = record.rid
                self._slice_end = 0  # deschedule

        else:  # THREAD_EXIT
            if self.hooks.ca_hub is not None:
                self.hooks.ca_hub.thread_exited(self._ctx.tid)
            capture.enqueue(record)

        return latency

    def _maybe_broadcast(self, record: Record) -> int:
        hub = self.hooks.ca_hub
        if not self._will_broadcast(record):
            return 0
        record.ca_id = hub.broadcast(
            self._ctx.tid, record.hl_kind, record.kind, record.ranges)
        record.ca_issuer = True
        if self.hooks.store_buffers:
            self._ca_fence = list(hub.state(record.ca_id).marks)
        return self.config.ca_ack_latency


class StoreBufferDrainActor(CoreActor):
    """Background drain of one core's TSO store buffer.

    Draining the head entry takes two phases: first the coherence
    request travels (``tso_drain_delay`` cycles — the window in which
    remote loads can still read the old value, creating the Section 5.5
    SC violations), then the write commits atomically (coherence
    transition + value write + record finalization) and its completion
    latency is charged before the next entry drains.
    """

    def __init__(self, engine: Engine, name: str, core_id: int,
                 buffer: TsoStoreBuffer, capture: OrderCapture, memsys,
                 memory, log: Optional[LogBuffer], drain_delay: int = 10):
        super().__init__(engine, name)
        self.core_id = core_id
        self.buffer = buffer
        self.capture = capture
        self.memsys = memsys
        self.memory = memory
        self.log = log
        self.drain_delay = drain_delay
        self._in_flight = None

    def step(self):
        if self.log is not None and not self.capture.flush():
            return ("wait", self.log.not_full, "wait_log", "drain flush")
        if self.buffer.empty:
            if self.buffer.closed:
                return ("done",)
            return ("wait", self.buffer.not_empty, "idle", "store buffer empty")
        entry = self.buffer.entries[0]
        if self._in_flight is not entry and self.drain_delay:
            # Phase 1: the request is in flight; the old value stays
            # visible to everyone else for drain_delay cycles.
            self._in_flight = entry
            return ("delay", self.drain_delay, "drain")
        # Phase 2: commit the write.
        self._in_flight = None
        self.capture.draining_record = entry.record
        result = self.memsys.access(self.core_id, entry.addr, entry.size,
                                    True, entry.record.rid)
        self.capture.draining_record = None
        self.memory.write(entry.addr, entry.size, entry.value)
        self.capture.finalize_store(entry.record, result.conflicts)
        self.buffer.pop()
        self.capture.flush()
        return ("delay", result.latency, "drain")
