"""ConflictAlert broadcast machinery (Sections 4.3 and 5.4).

High-level events (``malloc``/``free``, system calls) can conflict with
accelerator state and lifeguard metadata without ever touching the same
cache lines — *logical races*. The wrapper library therefore requests a
ConflictAlert broadcast around subscribed high-level events:

* application side — the issuing thread's order-capture component sends
  a CA message to every other *executing* thread's capture component;
  each inserts a ``CA_MARK`` record (carrying the event kind, phase, and
  optional memory ranges) into its own stream at its current position.
  The send serializes the issuer: it stalls until all components ack
  (modeled as a fixed latency).
* lifeguard side — the CA id forms a barrier. Every participant's
  lifeguard thread *arrives* when it reaches its CA_MARK record (after
  invalidating/flushing accelerator state per the lifeguard's
  configuration); the issuer's lifeguard waits for all arrivals, runs
  the high-level handler (e.g. marking a freed range unallocated), and
  *completes* the CA, releasing the participants.

This matches the paper's observation that for swaptions "every pair of
ConflictAlert messages is translated to a barrier at the lifeguard side".

Thread exit: a thread whose *application* side has retired THREAD_EXIT
can no longer receive CA_MARK records, but its *lifeguard* may still be
draining a backlog whose every record is coherence-ordered before any
later broadcast. Such threads therefore stay barrier participants until
their lifeguard exits (which grants their arrival) — otherwise the
issuer's handler could run ahead of records that precede it in the
global order, a logical race through the exit window.

Integrity: a participant's lifeguard exiting *without* having arrived
at an open CA whose mark was sent to it means the mark never reached
the stream — a lost broadcast. The hub raises loudly instead of letting
the barrier silently dissolve; :class:`~repro.faults.FaultPlan` uses
exactly this to prove lost broadcasts are detected.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.capture.events import RecordKind
from repro.common.errors import SimulationError
from repro.cpu.engine import Condition, Engine
from repro.trace.writer import tracer_for


class CAState:
    """Barrier state for one ConflictAlert id."""

    __slots__ = ("ca_id", "participants", "arrived", "complete",
                 "all_arrived_cond", "complete_cond", "marks",
                 "marks_sent")

    def __init__(self, ca_id: int, participants: Set[int]):
        self.ca_id = ca_id
        self.participants = set(participants)
        self.arrived: Set[int] = set()
        self.complete = False
        self.all_arrived_cond = Condition(f"ca{ca_id}.all_arrived")
        self.complete_cond = Condition(f"ca{ca_id}.complete")
        #: (tid, capture, mark record) per participant — the TSO fence
        #: checks these marks' predecessors are all finalized.
        self.marks = []
        #: Tids a CA_MARK was *sent* to (app-active at broadcast time);
        #: their lifeguards must arrive before exiting.
        self.marks_sent: Set[int] = set()

    @property
    def all_arrived(self) -> bool:
        return self.arrived >= self.participants


class CAHub:
    """Process-wide ConflictAlert coordinator."""

    def __init__(self, engine: Engine, faults=None, tracer=None):
        self.engine = engine
        self._captures = {}  # tid -> OrderCapture
        self._active_tids: Set[int] = set()
        self._lifeguard_tids: Set[int] = set()
        self._lifeguard_names: Dict[int, str] = {}
        self._states: Dict[int, CAState] = {}
        self._next_id = 1
        #: Optional :class:`~repro.faults.FaultPlan` armed at ``ca_mark``.
        self.faults = faults
        #: Optional :class:`~repro.trace.TraceWriter` (``ca`` events),
        #: kept only if it records them.
        self.tracer = tracer_for(tracer, "ca")
        # Statistics
        self.broadcasts = 0
        self.marks_inserted = 0

    # -- application side -------------------------------------------------------

    def register(self, tid: int, capture) -> None:
        self._captures[tid] = capture
        self._active_tids.add(tid)
        self._lifeguard_tids.add(tid)

    def register_lifeguard_actor(self, tid: int, name: str) -> None:
        """Name the lifeguard core consuming ``tid``'s stream.

        Only used to label barrier conditions with their notifiers so
        the engine's wait-for-graph diagnostics can walk through them.
        The hub keeps the name, not the core, which refers to the hub.
        """
        self._lifeguard_names[tid] = name

    def thread_exited(self, tid: int) -> None:
        """The app thread retired THREAD_EXIT: no more CA records for it."""
        self._active_tids.discard(tid)

    def broadcast(self, issuer_tid: int, hl_kind, phase_kind: RecordKind,
                  ranges) -> int:
        """Insert CA_MARK records into every other running thread's stream.

        Returns the CA id; the issuer's own HL record carries it with
        ``ca_issuer=True``. Threads whose application side has exited
        but whose lifeguard is still draining participate without a mark
        (their arrival is granted when the lifeguard exits).
        """
        ca_id = self._next_id
        self._next_id += 1
        participants = self._lifeguard_tids - {issuer_tid}
        state = CAState(ca_id, participants)
        self._states[ca_id] = state
        if self.tracer is not None:
            self.tracer.emit("ca", "broadcast", ca=ca_id, issuer=issuer_tid,
                             hl=hl_kind, phase=phase_kind,
                             participants=sorted(participants))
        state.all_arrived_cond.owners = [
            self._lifeguard_names[tid] for tid in sorted(participants)
            if tid in self._lifeguard_names]
        issuer_name = self._lifeguard_names.get(issuer_tid)
        if issuer_name is not None:
            state.complete_cond.owners = [issuer_name]
        for tid in sorted(participants & self._active_tids):
            state.marks_sent.add(tid)
            capture = self._captures[tid]
            if self.faults is not None:
                fault = self.faults.fire(
                    "ca_mark", tid=tid, context=f"CA#{ca_id} mark -> t{tid}")
                if fault is not None:
                    if fault.action == "drop":
                        continue  # the mark vanishes in transit
                    # "delay": the mark lands in the stream param cycles
                    # late, past records it should have preceded.
                    self.engine.schedule(
                        max(1, fault.param),
                        lambda c=capture, t=tid: self._insert_mark(
                            state, c, t, hl_kind, phase_kind, ranges,
                            issuer_tid),
                    )
                    continue
            self._insert_mark(state, capture, tid, hl_kind, phase_kind,
                              ranges, issuer_tid)
        self.broadcasts += 1
        return ca_id

    def _insert_mark(self, state: CAState, capture, tid: int, hl_kind,
                     phase_kind: RecordKind, ranges, issuer_tid: int) -> None:
        mark = capture.insert_ca_record(
            state.ca_id, hl_kind, phase_kind, ranges, issuer_tid)
        state.marks.append((tid, capture, mark))
        self.marks_inserted += 1
        if self.tracer is not None:
            self.tracer.emit("ca", "mark", ca=state.ca_id, tid=tid,
                             rid=mark.rid)

    # -- lifeguard side -----------------------------------------------------------

    def state(self, ca_id: int) -> CAState:
        return self._states[ca_id]

    def lifeguard_arrive(self, ca_id: int, tid: int) -> None:
        state = self._states[ca_id]
        state.arrived.add(tid)
        if self.tracer is not None:
            self.tracer.emit("ca", "arrive", ca=ca_id, tid=tid,
                             all_arrived=state.all_arrived)
        if state.all_arrived:
            state.all_arrived_cond.notify_all(self.engine)

    def lifeguard_exited(self, tid: int) -> None:
        """A finished lifeguard thread counts as arrived everywhere.

        By construction it has already processed every CA_MARK that
        actually reached its stream; this unblocks issuers whose
        broadcast raced with the thread's exit (no mark was sent) and
        issuers still waiting on this thread's backlog. A mark that *was*
        sent but never arrived at means the broadcast was lost in
        transit — raise instead of silently releasing the barrier.
        """
        self._lifeguard_tids.discard(tid)
        for state in self._states.values():
            if tid in state.participants and tid not in state.arrived:
                if tid in state.marks_sent and not state.complete:
                    raise SimulationError(
                        f"CA#{state.ca_id} integrity: lifeguard t{tid} "
                        f"exited without reaching its CA_MARK — the "
                        f"broadcast to t{tid} was lost or never committed")
                state.arrived.add(tid)
                if self.tracer is not None:
                    self.tracer.emit("ca", "exit_grant", ca=state.ca_id,
                                     tid=tid)
                if state.all_arrived:
                    state.all_arrived_cond.notify_all(self.engine)

    def mark_complete(self, ca_id: int) -> None:
        state = self._states[ca_id]
        state.complete = True
        if self.tracer is not None:
            self.tracer.emit("ca", "complete", ca=ca_id)
        state.complete_cond.notify_all(self.engine)

    def pending_barriers(self) -> int:
        return sum(1 for s in self._states.values() if not s.complete)
