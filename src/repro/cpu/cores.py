"""Core actors: application cores, the time-sliced core, lifeguard cores.

These are the state machines the discrete-event engine drives. An
:class:`AppCore` executes one application thread's micro-op stream,
performing timed coherent memory accesses, capturing event records (with
arcs), broadcasting ConflictAlerts, honouring system-call containment,
and stalling when its log buffer fills. A :class:`LifeguardCore`
consumes one log, enforcing arc order, CA barriers and TSO versioning,
driving the accelerators, executing lifeguard handlers semantically and
charging their modeled cost plus real simulated metadata cache latency.

Time-bucket names (Figure 7): application cores charge ``execute`` /
``wait_log`` / ``wait_containment``; lifeguard cores charge ``useful`` /
``wait_dependence`` / ``wait_application``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional

from repro.accel import IdempotentFilter, InheritanceTracking, MetadataTLB
from repro.capture.events import Record, RecordKind, RecordSource
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.capture.tso import StoreBufferEntry
from repro.common.config import MemoryModel, SimulationConfig
from repro.common.errors import SimulationError
from repro.cpu.engine import Condition, CoreActor, Engine
from repro.isa.instructions import HLPhase, OpKind, thread_exit
from repro.isa.program import ThreadApi


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
    """Capture stand-in for unmonitored runs: counts rids, stores nothing."""

    __slots__ = ("fully_committed", "draining_record")

    def __init__(self, tid: int):
        super().__init__(tid, {tid: 0})
        self.fully_committed = True
        self.draining_record = None

    def attach_conflicts(self, record, conflicts) -> None:
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

_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_RMW = OpKind.RMW
_NOP = OpKind.NOP
_HL_BEGIN = OpKind.HL_BEGIN
_HL_END = OpKind.HL_END
_THREAD_EXIT = OpKind.THREAD_EXIT


class AppCore(CoreActor):
    """One application thread pinned to one core (parallel monitoring)."""

    def __init__(self, engine: Engine, name: str, core_id: int, tid: int,
                 program, capture, memsys, memory, config: SimulationConfig,
                 hooks: MonitoringHooks, log: Optional[LogBuffer] = None,
                 store_buffer: Optional[TsoStoreBuffer] = None):
        super().__init__(engine, name)
        self.core_id = core_id
        self.tid = tid
        self.capture = capture
        self.memsys = memsys
        self.memory = memory
        self.config = config
        self.hooks = hooks
        self.log = log
        self.store_buffer = store_buffer
        self._gen = program
        self._started = False
        self._op = None
        self._result = None
        self._exiting = False
        self._containment_rid: Optional[int] = None
        self._ca_fence = None  # [(tid, capture, mark record)] to drain past
        self._phase = _FETCH
        self.instructions_retired = 0

    # -- generator pump ----------------------------------------------------------

    def _next_op(self):
        """The thread's first op (:meth:`step` resumes it after that)."""
        try:
            self._started = True
            return next(self._gen)
        except StopIteration:
            self._exiting = True
            return thread_exit()

    # -- the state machine ----------------------------------------------------------
    #
    # The steady-state instruction loop — commit the previous record,
    # fetch the next op, execute it — used to take three step() calls
    # chained by zero-delay transitions; only EXECUTE's latency is a real
    # delay. The phases are fused into one fall-through step and
    # ``_phase`` survives as the re-entry point after a blocking return
    # (COMMIT resumes at the flush after a log-full wake, FETCH at the
    # fence/containment gates, EXECUTE at the TSO pre-stalls).

    def step(self):
        phase = self._phase
        if phase == _COMMIT:
            if not self.capture.flush():
                return ("wait", self.log.not_full, "wait_log", "log full")
            if self._exiting:
                self._phase = _FINISH
                return self._finish_step()
            self._phase = phase = _FETCH
        elif phase == _FINISH:
            return self._finish_step()

        if phase == _FETCH:
            if self._ca_fence is not None:
                fence_wait = self._ca_fence_gate()
                if fence_wait is not None:
                    return fence_wait
            if self._containment_rid is not None:
                table = self.hooks.progress_table
                if table is not None and table.get(self.tid) < self._containment_rid:
                    return ("wait", table.condition(self.tid),
                            "wait_containment", "syscall containment")
                self._containment_rid = None
            if self._started:
                # _next_op's resume, inlined: one per instruction.
                try:
                    self._op = self._gen.send(self._result)
                except StopIteration:
                    self._exiting = True
                    self._op = thread_exit()
            else:
                self._op = self._next_op()
            self._result = None
            self._phase = _EXECUTE

        if self.store_buffer is not None:
            stall = self._tso_pre_stall()
            if stall is not None:
                return stall
        latency = self._execute()
        self.instructions_retired += 1
        engine = self.engine
        engine.last_retire = engine.now  # Engine.note_retire, inlined
        self._phase = _COMMIT
        return ("delay", latency, "execute")

    def _finish_step(self):
        if self.store_buffer is not None:
            self.store_buffer.close()
            if not self.store_buffer.empty:
                return ("wait", self.store_buffer.empty_cond,
                        "wait_log", "draining store buffer")
        if not self.capture.flush():
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

    def _will_broadcast(self, op) -> bool:
        if self.hooks.ca_hub is None or op.value == 1:
            return False
        phase = HLPhase.BEGIN if op.kind == _HL_BEGIN else HLPhase.END
        return (op.hl_kind, phase) in self.hooks.ca_subscriptions

    # -- execution ------------------------------------------------------------------------

    def _execute(self) -> int:
        op = self._op
        kind = op.kind
        capture = self.capture
        record = capture.begin_record(op)
        latency = 1

        # A conflict-free access (every L1 hit) has no arcs to attach.
        if kind == _LOAD:
            forwarded = (self.store_buffer.forward_value(op.addr, op.size)
                         if self.store_buffer is not None else None)
            if forwarded is not None:
                self._result = forwarded
                capture.enqueue(record)
            else:
                result = self.memsys.access(self.core_id, op.addr, op.size,
                                            False, record.rid)
                if result.conflicts:
                    capture.attach_conflicts(record, result.conflicts)
                self._result = self.memory.read(op.addr, op.size)
                latency = result.latency
                capture.enqueue(record)

        elif kind == _STORE:
            if self.store_buffer is not None:
                capture.enqueue(record, finalized=False)
                self.store_buffer.push(
                    StoreBufferEntry(op.addr, op.size, op.value, record))
            else:
                result = self.memsys.access(self.core_id, op.addr, op.size,
                                            True, record.rid)
                if result.conflicts:
                    capture.attach_conflicts(record, result.conflicts)
                self.memory.write(op.addr, op.size, op.value)
                latency = result.latency
                capture.enqueue(record)

        elif kind == _RMW:
            result = self.memsys.access(self.core_id, op.addr, op.size,
                                        True, record.rid)
            if result.conflicts:
                capture.attach_conflicts(record, result.conflicts)
            self._result = self.memory.read(op.addr, op.size)
            self.memory.write(op.addr, op.size, op.value)
            latency = result.latency + 2  # atomic read-modify-write penalty
            capture.enqueue(record)

        elif kind == _NOP:
            latency = op.value if op.value else 1
            capture.enqueue(record)

        elif kind == _HL_BEGIN or kind == _HL_END:
            latency = 1 + self._maybe_broadcast(op, record)
            capture.enqueue(record)
            if (kind == _HL_BEGIN
                    and op.hl_kind in self.hooks.containment_kinds):
                self._containment_rid = record.rid

        elif kind == _THREAD_EXIT:
            if self.hooks.ca_hub is not None:
                self.hooks.ca_hub.thread_exited(self.tid)
            capture.enqueue(record)

        else:  # MOVRR, ALU, LOADI, CRITICAL_USE
            capture.enqueue(record)

        return latency

    def _maybe_broadcast(self, op, record: Record) -> int:
        hub = self.hooks.ca_hub
        if not self._will_broadcast(op):
            return 0
        record.ca_id = hub.broadcast(
            self.tid, op.hl_kind, RecordKind(int(op.kind)), op.ranges)
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


class TimeslicedAppCore(CoreActor):
    """All application threads round-robin on one core (the baseline).

    Threads on the same core share its L1, so no coherence traffic — and
    therefore no dependence arcs — ever crosses them; the interleaved log
    itself is the total order, exactly the state of the art the paper
    compares against. Context switches save/restore the (thread id,
    counter) tuple and cost :attr:`SimulationConfig.context_switch_cycles`.
    """

    def __init__(self, engine: Engine, name: str, core_id: int,
                 programs: Dict[int, object], captures: Dict[int, OrderCapture],
                 memsys, memory, config: SimulationConfig,
                 hooks: MonitoringHooks, log: Optional[LogBuffer]):
        super().__init__(engine, name)
        self.core_id = core_id
        self.memsys = memsys
        self.memory = memory
        self.config = config
        self.hooks = hooks
        self.log = log
        self.captures = captures
        self._threads = {
            tid: {
                "gen": program,
                "started": False,
                "result": None,
                "exited": False,
                "containment": None,
            }
            for tid, program in programs.items()
        }
        self._order: List[int] = sorted(self._threads)
        self._current: Optional[int] = None
        self._slice_used = 0
        self._quantum = config.timeslice_quantum
        self._op = None
        self._phase = _FETCH
        self.instructions_retired = 0
        self.context_switches = 0

    # -- scheduling -----------------------------------------------------------------

    def _runnable(self, tid: int) -> bool:
        state = self._threads[tid]
        if state["exited"]:
            return False
        if state["containment"] is not None:
            table = self.hooks.progress_table
            if table is not None and table.get(tid) < state["containment"]:
                return False
            state["containment"] = None
        return True

    def _pick_thread(self):
        """Next runnable thread after the current one (round robin).

        Returns (tid, switch_cost) or (None, blocked_tid) when every
        live thread is containment-blocked, or (None, None) when all
        threads exited.
        """
        live = [tid for tid in self._order if not self._threads[tid]["exited"]]
        if not live:
            return (None, None)
        start = 0
        if self._current in live:
            start = live.index(self._current)
        for offset in range(len(live)):
            tid = live[(start + offset) % len(live)]
            if offset == 0 and self._slice_used >= self._quantum:
                continue  # quantum expired: prefer someone else
            if self._runnable(tid):
                return (tid, tid != self._current)
        # Quantum expired but nobody else is runnable: keep running current.
        if self._current in live and self._runnable(self._current):
            self._slice_used = 0
            return (self._current, False)
        blocked = [tid for tid in live if self._threads[tid]["containment"] is not None]
        return (None, blocked[0] if blocked else live[0])

    def _next_op(self, tid: int):
        state = self._threads[tid]
        try:
            if state["started"]:
                return state["gen"].send(state["result"])
            state["started"] = True
            return next(state["gen"])
        except StopIteration:
            state["exited"] = True
            return thread_exit()

    # -- state machine ----------------------------------------------------------------

    def step(self):
        # Fused like AppCore.step: the zero-delay COMMIT → FETCH →
        # EXECUTE chain runs in one call; a context switch's nonzero
        # cost still returns a real delay (re-entering at EXECUTE).
        phase = self._phase
        if phase == _COMMIT:
            if not self.captures[self._current].flush():
                return ("wait", self.log.not_full, "wait_log", "log full")
            self._phase = phase = _FETCH
        elif phase == _FINISH:
            return self._finish_step()

        if phase == _FETCH:
            tid = self._current
            state = self._threads.get(tid)
            # While its quantum lasts, a live, uncontained current thread
            # keeps the core: exactly what _pick_thread would decide.
            if (state is None or state["exited"]
                    or state["containment"] is not None
                    or self._slice_used >= self._quantum):
                tid, info = self._pick_thread()
                if tid is None:
                    if info is None:
                        self._phase = _FINISH
                        return self._finish_step()
                    table = self.hooks.progress_table
                    return ("wait", table.condition(info),
                            "wait_containment", f"t{info} containment")
                state = self._threads[tid]
            switch_cost = 0
            if tid != self._current:
                if self._current is not None:
                    switch_cost = self.config.context_switch_cycles
                    self.context_switches += 1
                self._current = tid
                self._slice_used = 0
            self._op = self._next_op(tid)
            state["result"] = None
            self._phase = _EXECUTE
            if switch_cost:
                return ("delay", switch_cost, "execute")

        latency = self._execute(self._current)
        self.instructions_retired += 1
        engine = self.engine
        engine.last_retire = engine.now  # Engine.note_retire, inlined
        self._slice_used += 1
        self._phase = _COMMIT
        return ("delay", latency, "execute")

    def _finish_step(self):
        if any(not capture.flush() for capture in self.captures.values()):
            return ("wait", self.log.not_full, "wait_log", "final flush")
        if self.log is not None:
            self.log.close()
        return ("done",)

    def _execute(self, tid: int) -> int:
        op = self._op
        kind = op.kind
        capture = self.captures[tid]
        state = self._threads[tid]
        record = capture.begin_record(op)
        latency = 1

        if kind == _LOAD:
            result = self.memsys.access(self.core_id, op.addr, op.size,
                                        False, record.rid)
            state["result"] = self.memory.read(op.addr, op.size)
            latency = result.latency
        elif kind == _STORE:
            result = self.memsys.access(self.core_id, op.addr, op.size,
                                        True, record.rid)
            self.memory.write(op.addr, op.size, op.value)
            latency = result.latency
        elif kind == _RMW:
            result = self.memsys.access(self.core_id, op.addr, op.size,
                                        True, record.rid)
            state["result"] = self.memory.read(op.addr, op.size)
            self.memory.write(op.addr, op.size, op.value)
            latency = result.latency + 2
        elif kind == _NOP:
            latency = op.value if op.value else 1
            if op.value and op.value > 1:
                # A spin-wait pause on a time-sliced machine yields the
                # CPU (pthread spin-then-block): burning the quantum in a
                # spin loop would deadlock progress for whole quanta.
                self._slice_used = self._quantum
        elif kind == _HL_BEGIN:
            if op.hl_kind in self.hooks.containment_kinds:
                state["containment"] = record.rid
                self._slice_used = self._quantum  # deschedule

        capture.enqueue(record)
        return latency
