"""Discrete-event simulation engine.

The engine owns simulated time. Actors (cores) implement a ``step()``
state machine returning one of::

    ("delay", cycles, bucket)          # busy for `cycles`, charged to `bucket`
    ("wait", condition, bucket, why)   # block until condition.notify_all()
    ("done",)                          # actor finished

Waiting time is charged to the named bucket when the actor wakes, which
is how the Figure 7 breakdown (useful work / waiting-for-dependence /
waiting-for-application) is measured. Wake-ups are edge-triggered and
may be spurious — a woken actor re-evaluates its state in ``step()`` and
may wait again — so conditions only need to notify on *potential* state
changes.

Scheduler: a **calendar queue** (cycle-bucket ring). Near-future events
(``delay < _RING_SIZE``) are appended to a ring of per-cycle deques —
one ``append`` of the bare callback, no entry tuple, no comparison —
and far-future events go to a small overflow heap keyed ``(cycle,
seq)``, promoted into the ring as time advances. Callbacks are never
compared: FIFO order within a cycle bucket reproduces the old global
heap's ``(cycle, seq)`` total order bit-for-bit, so schedules (and
therefore traces, verdicts and fingerprints) are unchanged.

Ring invariant: every ring entry's cycle lies in ``[now, now + _RING_SIZE)``
— each slot therefore holds exactly one cycle's events. Overflow entries
always lie at or beyond ``now + _RING_SIZE``; promotion runs on every
advance of ``now``, *before* any callback at the new time executes, so a
promoted (earlier-scheduled) callback always lands in its slot ahead of
any same-cycle callback scheduled later.

Failure diagnosis: a drained queue with blocked actors is a classic
deadlock; an optional :class:`Watchdog` additionally detects *livelock*
(events keep firing but no actor retires a record for a whole cycle
window). Both paths build a wait-for graph over actors and
:class:`Condition` objects, run cycle detection, and raise an enriched
:class:`~repro.common.errors.DeadlockError` that platforms can extend
with progress-table and log-buffer snapshots.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import DeadlockError, SimulationError, SimulationTimeout
from repro.common.stats import TimeBuckets

#: Calendar-queue ring size (slots = cycles of look-ahead). Power of two
#: so slot indexing is a mask, sized to cover every latency the memory
#: system or cost model produces; longer delays take the overflow heap.
_RING_SIZE = 1024
_RING_MASK = _RING_SIZE - 1


class Watchdog:
    """Livelock detector configuration for :meth:`Engine.run`.

    ``window`` is the number of simulated cycles the engine will tolerate
    without any actor calling :meth:`Engine.note_retire` while unfinished
    actors remain. A window of 0 disables the check (equivalent to not
    attaching a watchdog). Spin-polling consumers keep the event queue
    non-empty forever, so queue-drain deadlock detection alone cannot see
    this failure mode — the watchdog can.
    """

    def __init__(self, window: int = 100_000):
        if window < 0:
            raise SimulationError("watchdog window must be >= 0")
        self.window = window

    def __repr__(self):
        return f"Watchdog(window={self.window})"


class Engine:
    """Calendar-queue event scheduler + actor lifecycle tracking."""

    def __init__(self, watchdog: Optional[Watchdog] = None, tracer=None):
        self.now = 0
        # Ring slots start as None and get a deque on first use; once
        # created, a slot's deque is reused for the life of the engine
        # (the ring wraps), so the steady-state event path never
        # allocates an entry object — the callback itself is the entry.
        self._ring: List[Optional[deque]] = [None] * _RING_SIZE
        self._ring_count = 0
        self._overflow: List = []
        self._seq = 0
        self._actors: List["CoreActor"] = []
        #: Registered actors that have not finished yet. Maintained by
        #: :meth:`register` and :meth:`note_finish` so the watchdog's
        #: per-event liveness check is O(1) instead of an O(actors) scan.
        self._unfinished = 0
        #: Actors that already called :meth:`note_finish` (double-finish
        #: guard — a second call would silently corrupt ``_unfinished``).
        self._finished_actors = set()
        #: Total events popped off the time queue (perf-harness metric).
        self.events_popped = 0
        #: Optional livelock detector; may also be attached after init.
        self.watchdog = watchdog
        #: Optional :class:`~repro.trace.TraceWriter`; actors emit
        #: ``engine`` category stall/wake/done events through it. None
        #: (the default) keeps the run loop completely untouched.
        self.tracer = tracer
        if tracer is not None:
            tracer.attach_engine(self)
        #: Simulated time of the last :meth:`note_retire` call.
        self.last_retire = 0
        #: Optional platform callback returning extra diagnostic fields
        #: (``last_retired`` / ``progress`` / ``log_occupancy`` /
        #: ``injected``) merged into a raised :class:`DeadlockError`.
        self.diagnostics_provider: Optional[Callable[[], dict]] = None

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-not-yet-executed events."""
        return self._ring_count + len(self._overflow)

    def register(self, actor: "CoreActor") -> None:
        self._actors.append(actor)
        self._unfinished += 1

    def note_finish(self, actor: "CoreActor") -> None:
        """Actors report here exactly once, when they finish.

        A second call for the same actor raises — it would drive
        ``_unfinished`` negative, silently disabling the watchdog's
        livelock check and the deadlock diagnosis.
        """
        if actor in self._finished_actors:
            raise SimulationError(
                f"{getattr(actor, 'name', actor)}: note_finish called twice")
        self._finished_actors.add(actor)
        self._unfinished -= 1

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if delay < _RING_SIZE:
            cycle = self.now + delay
            ring = self._ring
            index = cycle & _RING_MASK
            slot = ring[index]
            if slot is None:
                slot = ring[index] = deque()
            slot.append(callback)
            self._ring_count += 1
        else:
            self._seq += 1
            heapq.heappush(self._overflow,
                           (self.now + delay, self._seq, callback))

    def note_retire(self) -> None:
        """Actors call this when they retire an instruction or record.

        The watchdog considers the simulation live as long as *some*
        actor retires within its window; conditions waking and re-waiting
        (spurious wake-ups, spin polls) deliberately do not count.
        """
        self.last_retire = self.now

    def _promote(self, now: int) -> None:
        """Move overflow events that entered the ring horizon into slots."""
        overflow = self._overflow
        ring = self._ring
        horizon = now + _RING_SIZE
        heappop = heapq.heappop
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            index = entry[0] & _RING_MASK
            slot = ring[index]
            if slot is None:
                slot = ring[index] = deque()
            slot.append(entry[2])
            self._ring_count += 1

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Run until all actors finish; returns the final time.

        Raises :class:`DeadlockError` if the event queue drains while
        actors are still blocked — in this codebase that always means an
        ordering mechanism (arcs, CA barriers, versioning) is broken —
        or, with a :class:`Watchdog` attached, when no actor retires for
        a whole watchdog window. Raises :class:`SimulationTimeout` when
        ``max_cycles`` is exceeded; the event that tripped the budget
        stays queued (``pending_events`` counts it) and its time is
        committed to :attr:`now`, so a later ``run()`` call with a
        larger (or no) budget resumes by executing that event first —
        the crash report and a resumed run see the same queue.
        """
        watchdog = self.watchdog
        window = watchdog.window if watchdog is not None else 0
        ring = self._ring
        mask = _RING_MASK
        overflow = self._overflow
        popped = 0
        try:
            # Entry check: a resumed run whose budget is still exceeded
            # must re-trip on the already-committed tripping cycle before
            # executing anything (the mid-run path below only checks the
            # budget when time advances).
            if (max_cycles is not None and self.now > max_cycles
                    and ring[self.now & mask]):
                pending = self._ring_count + len(overflow)
                raise SimulationTimeout(
                    f"simulation exceeded max_cycles={max_cycles} "
                    f"at cycle {self.now} with {pending} pending events",
                    cycle=self.now, pending_events=pending)
            while self._ring_count or overflow:
                now = self.now
                slot = ring[now & mask]
                if not slot:
                    # Advance to the next pending cycle: scan the ring if
                    # it holds anything (bounded by the ring size, and
                    # amortised over the cycles actually simulated), else
                    # fast-forward straight to the overflow head.
                    if self._ring_count:
                        t = now + 1
                        while not ring[t & mask]:
                            t += 1
                    else:
                        t = overflow[0][0]
                    if overflow and overflow[0][0] < t + _RING_SIZE:
                        self._promote(t)
                    if max_cycles is not None and t > max_cycles:
                        self.now = t
                        pending = self._ring_count + len(overflow)
                        raise SimulationTimeout(
                            f"simulation exceeded max_cycles={max_cycles} "
                            f"at cycle {t} with {pending} pending events",
                            cycle=t, pending_events=pending)
                    self.now = now = t
                    slot = ring[now & mask]
                while slot:
                    callback = slot.popleft()
                    self._ring_count -= 1
                    popped += 1
                    callback()
                    if (window and now - self.last_retire > window
                            and self._unfinished):
                        raise self._diagnose(
                            f"livelock: no actor retired anything for "
                            f"{now - self.last_retire} cycles (window="
                            f"{window}) while events kept firing",
                            kind="livelock",
                        )
        finally:
            self.events_popped += popped
        blocked = [a for a in self._actors if not a.finished]
        if blocked:
            raise self._diagnose(
                "simulation deadlocked with blocked actors", kind="deadlock")
        return self.now

    # -- failure diagnosis --------------------------------------------------

    def wait_for_graph(self) -> Dict[str, List[str]]:
        """Build the wait-for graph over actors and conditions.

        Edges: a blocked actor points at the condition it waits on; a
        condition points at the actors registered as its *owners* (the
        parties responsible for eventually notifying it, wired by the
        platform). A cycle through these edges is a circular wait.
        """
        graph: Dict[str, List[str]] = {}
        for actor in self._actors:
            condition = actor.wait_condition
            if actor.finished or condition is None:
                continue
            node = f"cond:{condition.name}"
            graph.setdefault(f"actor:{actor.name}", []).append(node)
            owners = graph.setdefault(node, [])
            for owner in condition.owners:
                name = f"actor:{getattr(owner, 'name', owner)}"
                if name not in owners:
                    owners.append(name)
        return graph

    def _diagnose(self, message: str, kind: str) -> DeadlockError:
        graph = self.wait_for_graph()
        busy = "not waiting (busy)" if kind == "livelock" else "unknown"
        waiting = {a.name: a.wait_reason or busy
                   for a in self._actors if not a.finished}
        extra = {}
        if self.diagnostics_provider is not None:
            extra = dict(self.diagnostics_provider() or {})
        trace_tail = extra.get("trace_tail")
        if trace_tail is None and self.tracer is not None:
            trace_tail = self.tracer.snapshot()
        return DeadlockError(
            message, waiting=waiting, kind=kind,
            cycle=find_cycle(graph), graph=graph,
            last_retired=extra.get("last_retired"),
            progress=extra.get("progress"),
            log_occupancy=extra.get("log_occupancy"),
            injected=extra.get("injected"),
            trace_tail=trace_tail,
        )


def find_cycle(graph: Dict[str, List[str]]) -> Optional[List[str]]:
    """Find one cycle in a directed graph; returns its node list or None.

    Iterative DFS with colouring; the returned list starts and ends on
    the same node (``[a, b, c, a]``) so it renders as a closed walk.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in graph}
    for root in graph:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        path = [root]
        colour[root] = GREY
        while stack:
            node, edge_index = stack[-1]
            successors = graph.get(node, ())
            if edge_index < len(successors):
                stack[-1] = (node, edge_index + 1)
                succ = successors[edge_index]
                state = colour.get(succ, BLACK)
                if state == GREY:
                    return path[path.index(succ):] + [succ]
                if state == WHITE:
                    colour[succ] = GREY
                    stack.append((succ, 0))
                    path.append(succ)
            else:
                colour[node] = BLACK
                stack.pop()
                path.pop()
    return None


class Condition:
    """A waitable, edge-triggered condition with named waiters.

    ``owners`` optionally lists the actors (or named components)
    responsible for eventually notifying this condition; the engine's
    wait-for-graph builder uses them as the condition's outgoing edges.
    """

    __slots__ = ("name", "_waiters", "owners")

    def __init__(self, name: str, owners: Optional[list] = None):
        self.name = name
        self._waiters: List["CoreActor"] = []
        self.owners: List = list(owners or [])

    def add_waiter(self, actor: "CoreActor") -> None:
        self._waiters.append(actor)

    def remove_waiter(self, actor: "CoreActor") -> None:
        """Drop one waiter if present (idempotent)."""
        try:
            self._waiters.remove(actor)
        except ValueError:
            pass

    def notify_all(self, engine: Engine) -> None:
        """Wake every waiter (they re-check their state and may re-wait).

        The waiter list is swapped out *before* any wake is scheduled, so
        a waiter that re-waits on this same condition while the pass's
        wake events drain lands on the fresh list and is only woken by a
        *later* notify_all — never re-notified by the same pass. A waiter
        that ends up scheduled for two wakes (duplicate waiter-list
        entries, crossed notifications) runs once: the second wake
        arrives after the actor resumed and is dropped as stale by
        :meth:`CoreActor.wake`.
        """
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        for actor in waiters:
            engine.schedule(0, actor.wake)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self):
        return f"Condition({self.name}, waiters={len(self._waiters)})"


class CoreActor:
    """Base class for engine actors with time-bucket accounting."""

    def __init__(self, engine: Engine, name: str, buckets: TimeBuckets = None):
        self.engine = engine
        self.name = name
        self.buckets = buckets if buckets is not None else TimeBuckets()
        self.finished = False
        self.finish_time: Optional[int] = None
        self.wait_reason: Optional[str] = None
        #: The condition this actor is currently parked on (None when
        #: runnable); the watchdog's wait-for graph reads this.
        self.wait_condition: Optional[Condition] = None
        self._wait_started: Optional[int] = None
        self._wait_bucket: Optional[str] = None
        # Pre-bind the hot callbacks: every plain `self._run` / `self.wake`
        # attribute access on a class method allocates a fresh bound
        # method, which the old code paid once per scheduled event. The
        # instance-dict copies below are created once and reused.
        self._run = self._run
        self.wake = self.wake
        engine.register(self)

    # -- subclass contract ---------------------------------------------------

    def step(self):
        """Advance one state-machine step; see module docstring for returns."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    def start(self, delay: int = 0) -> None:
        self.engine.schedule(delay, self._run)

    def wake(self) -> None:
        """Called (via the engine) when a waited-on condition fires."""
        if self.finished:
            # A stale wake must not leave the dead actor parked in any
            # waiter list, where it would swallow future notifications.
            self._purge_wait()
            return
        if self.wait_condition is None and self._wait_started is None:
            # Stale wake: the actor already resumed (it was woken once and
            # is running or re-scheduled). This happens when the actor was
            # notified twice — e.g. it appeared in two waiter lists —
            # before the first wake event ran. Calling _run() here would
            # double-execute the state machine.
            return
        if self._wait_started is not None:
            waited = self.engine.now - self._wait_started
            self.buckets.charge(self._wait_bucket, waited)
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.emit("engine", "wake", actor=self.name, waited=waited)
            self._wait_started = None
            self._wait_bucket = None
            self.wait_reason = None
        self.wait_condition = None
        self._run()

    def _purge_wait(self) -> None:
        if self.wait_condition is not None:
            self.wait_condition.remove_waiter(self)
            self.wait_condition = None

    def _run(self) -> None:
        # Hot trampoline: locals for everything touched per step. `step`
        # and `_run` come from the instance dict (pre-bound in __init__),
        # so no bound-method allocation happens on this path. Positive
        # delays go straight into the bucket dict; anything else takes
        # TimeBuckets.charge, which rejects negative cycles.
        engine = self.engine
        step = self.step
        buckets = self.buckets.buckets
        charge = self.buckets.charge
        schedule = engine.schedule
        run = self._run
        while True:
            action = step()
            kind = action[0]
            if kind == "delay":
                cycles = action[1]
                if cycles:
                    if cycles > 0:
                        buckets[action[2]] += cycles
                    else:
                        charge(action[2], cycles)
                    schedule(cycles, run)
                    return
                # Zero-cost transition: keep stepping inline.
            elif kind == "wait":
                _, condition, bucket, reason = action
                self._wait_started = engine.now
                self._wait_bucket = bucket
                self.wait_reason = f"{reason} ({condition.name})"
                self.wait_condition = condition
                condition.add_waiter(self)
                tracer = engine.tracer
                if tracer is not None:
                    tracer.emit("engine", "stall", actor=self.name,
                                cond=condition.name, why=reason,
                                bucket=bucket)
                return
            elif kind == "done":
                self._purge_wait()
                self.finished = True
                self.finish_time = engine.now
                engine.note_finish(self)
                tracer = engine.tracer
                if tracer is not None:
                    tracer.emit("engine", "done", actor=self.name)
                self.on_finish()
                return
            else:
                raise SimulationError(f"{self.name}: unknown step action {kind!r}")

    def on_finish(self) -> None:
        """Hook for subclasses (e.g. to notify waiters that depend on us)."""
