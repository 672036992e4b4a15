"""Discrete-event simulation engine.

The engine owns simulated time. Actors (cores) implement a ``step()``
state machine returning one of::

    cycles                             # an int: busy for `cycles`, charged
                                       # to the actor's `delay_bucket`
    ("delay", cycles, bucket)          # busy for `cycles`, charged to `bucket`
    ("wait", condition, bucket, why)   # block until condition.notify_all()
    ("done",)                          # actor finished

The bare ``int`` is the per-record form: a core that retires one record
per step returns its latency without building a tuple. It must be an
exact ``int``; a ``bool`` or any other value that is not one of the
tuples above raises :class:`~repro.common.errors.SimulationError`
("unknown step action"). A delay of 0 is a timing-invisible transition:
the trampoline calls ``step()`` again at once.

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
any same-cycle callback scheduled later. The ring keeps no event count:
when the current slot is empty the run loop scans at most one ring
length forward, and an empty scan means the ring is empty, so it jumps
to the overflow head (or stops when that is empty too). Once every
actor has finished, ``any(ring)`` stands in for the scan.
:attr:`Engine.pending_events` sums the slots on demand; only timeouts and
reports read it.

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
        self._overflow: List = []
        self._seq = 0
        #: Registered actors that have not finished yet, in registration
        #: order (the values are unused). :meth:`note_finish` removes an
        #: actor, so the watchdog's per-event liveness check is a
        #: truth test, and a finished actor is no longer referenced.
        self.live_actors: Dict["CoreActor", None] = {}
        #: Total events popped off the time queue (``stats["perf"]``).
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
        return (sum(len(slot) for slot in self._ring if slot)
                + len(self._overflow))

    def register(self, actor: "CoreActor") -> None:
        self.live_actors[actor] = None

    def note_finish(self, actor: "CoreActor") -> None:
        """Actors report here exactly once, when they finish.

        A second call for the same actor raises: it would mean the
        actor's state machine ran past ``("done",)``.
        """
        try:
            del self.live_actors[actor]
        except KeyError:
            raise SimulationError(
                f"{getattr(actor, 'name', actor)}: note_finish called twice"
            ) from None

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

        A run that completes drops :attr:`diagnostics_provider` and
        detaches from its tracer, so no reference cycle outlives it and
        the machine is freed as soon as its last holder lets go. A raised
        error keeps both, for the crash report and a resumed run.
        """
        watchdog = self.watchdog
        window = watchdog.window if watchdog is not None else 0
        ring = self._ring
        mask = _RING_MASK
        overflow = self._overflow
        live = self.live_actors
        popped = 0
        try:
            # Entry check: a resumed run whose budget is still exceeded
            # must re-trip on the already-committed tripping cycle before
            # executing anything (the mid-run path below only checks the
            # budget when time advances).
            if (max_cycles is not None and self.now > max_cycles
                    and ring[self.now & mask]):
                pending = self.pending_events
                raise SimulationTimeout(
                    f"simulation exceeded max_cycles={max_cycles} "
                    f"at cycle {self.now} with {pending} pending events",
                    cycle=self.now, pending_events=pending)
            while True:
                now = self.now
                slot = ring[now & mask]
                if not slot:
                    # Advance to the next pending cycle: scan the ring
                    # (at most one ring length, amortised over the cycles
                    # actually simulated); a scan that finds nothing means
                    # the ring is empty, so fast-forward straight to the
                    # overflow head, or stop when that is empty too. Once
                    # every actor has finished the ring is usually empty,
                    # and one C-level pass proves it for far less than a
                    # full scan costs (short runs end this way).
                    t = now + 1
                    end = now + _RING_SIZE
                    if live or any(ring):
                        while t < end and not ring[t & mask]:
                            t += 1
                    else:
                        t = end
                    if t == end:
                        if not overflow:
                            break
                        t = overflow[0][0]
                    if overflow and overflow[0][0] < t + _RING_SIZE:
                        self._promote(t)
                    if max_cycles is not None and t > max_cycles:
                        self.now = t
                        pending = self.pending_events
                        raise SimulationTimeout(
                            f"simulation exceeded max_cycles={max_cycles} "
                            f"at cycle {t} with {pending} pending events",
                            cycle=t, pending_events=pending)
                    self.now = now = t
                    slot = ring[now & mask]
                while slot:
                    callback = slot.popleft()
                    popped += 1
                    callback()
                    if (window and now - self.last_retire > window
                            and live):
                        raise self._diagnose(
                            f"livelock: no actor retired anything for "
                            f"{now - self.last_retire} cycles (window="
                            f"{window}) while events kept firing",
                            kind="livelock",
                        )
        finally:
            self.events_popped += popped
        if live:
            raise self._diagnose(
                "simulation deadlocked with blocked actors", kind="deadlock")
        self.diagnostics_provider = None
        if self.tracer is not None:
            self.tracer.detach_engine(self)
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
        for actor in self.live_actors:
            condition = actor.wait_condition
            if condition is None:
                continue
            node = f"cond:{condition.name}"
            graph.setdefault(f"actor:{actor.name}", []).append(node)
            owners = graph.setdefault(node, [])
            for owner in condition.owners:
                name = f"actor:{owner}"
                if name not in owners:
                    owners.append(name)
        return graph

    def _diagnose(self, message: str, kind: str) -> DeadlockError:
        graph = self.wait_for_graph()
        busy = "not waiting (busy)" if kind == "livelock" else "unknown"
        waiting = {a.name: a.wait_reason or busy for a in self.live_actors}
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

    ``owners`` optionally lists the names of the actors (or other
    components) responsible for eventually notifying this condition;
    the engine's wait-for-graph builder uses them as the condition's
    outgoing edges. Names, not actors: a condition an actor waits on
    must not refer back to it.

    ``waiters`` is public so a per-record notifier can skip the
    :meth:`notify_all` call when nobody waits (``if cond.waiters:``);
    only this class changes it.
    """

    __slots__ = ("name", "waiters", "owners")

    def __init__(self, name: str, owners: Optional[List[str]] = None):
        self.name = name
        self.waiters: List["CoreActor"] = []
        self.owners: List[str] = list(owners or [])

    def add_waiter(self, actor: "CoreActor") -> None:
        self.waiters.append(actor)

    def remove_waiter(self, actor: "CoreActor") -> None:
        """Drop one waiter if present (idempotent)."""
        try:
            self.waiters.remove(actor)
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
        if not self.waiters:
            return
        waiters, self.waiters = self.waiters, []
        for actor in waiters:
            engine.schedule(0, actor.wake)

    @property
    def waiter_count(self) -> int:
        return len(self.waiters)

    def __repr__(self):
        return f"Condition({self.name}, waiters={len(self.waiters)})"


class CoreActor:
    """Base class for engine actors with time-bucket accounting."""

    #: The bucket a bare-int ``step()`` delay is charged to.
    delay_bucket = "useful"

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.buckets = TimeBuckets()
        self.finished = False
        self.finish_time: Optional[int] = None
        self.wait_reason: Optional[str] = None
        #: The condition this actor is currently parked on (None when
        #: runnable); the watchdog's wait-for graph reads this.
        self.wait_condition: Optional[Condition] = None
        self._wait_started: Optional[int] = None
        self._wait_bucket: Optional[str] = None
        # The engine tracer's ``engine`` wake/done emitters (None
        # unless it records them); ``stall`` carries strings, so it
        # takes the writer's ``emit``.
        tracer = engine.tracer
        self._wake_emit = self._done_emit = None
        if tracer is not None:
            self._wake_emit = tracer.prepare("engine", "wake", ("waited",),
                                             actor=name)
            self._done_emit = tracer.prepare("engine", "done", actor=name)
        # Pre-bind the hot callbacks: every plain `self._run` / `self.wake`
        # attribute access on a class method allocates a fresh bound
        # method, which the old code paid once per scheduled event. The
        # instance-dict copies below are created once and reused, and
        # deleted when the actor finishes (each one refers back to the
        # actor); a stale wake after that binds on the fly.
        self._run = self._run
        self.wake = self.wake
        engine.register(self)

    # -- subclass contract ---------------------------------------------------

    def step(self):
        """Advance one state-machine step; see module docstring for returns."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.engine.schedule(0, self._run)

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
            if self._wake_emit is not None:
                self._wake_emit(waited)
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
        # so no bound-method allocation happens on this path. A bare-int
        # action is a delay charged to `delay_bucket`. A delay that lands
        # in the calendar ring is charged and appended to its slot here;
        # a far delay takes Engine.schedule, and a negative one
        # TimeBuckets.charge, which rejects it.
        engine = self.engine
        step = self.step
        buckets = self.buckets.buckets
        run = self._run
        delay_bucket = self.delay_bucket
        while True:
            action = step()
            if action.__class__ is int:
                cycles = action
                bucket = delay_bucket
            else:
                try:
                    kind = action[0]
                except (LookupError, TypeError):
                    kind = action
                if kind == "delay":
                    cycles = action[1]
                    bucket = action[2]
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
                    del self._run, self.wake
                    if self._done_emit is not None:
                        self._done_emit()
                    self.on_finish()
                    return
                else:
                    raise SimulationError(
                        f"{self.name}: unknown step action {kind!r}")
            if cycles:
                if 0 < cycles < _RING_SIZE:
                    # Engine.schedule's ring branch, inlined.
                    buckets[bucket] += cycles
                    ring = engine._ring
                    index = (engine.now + cycles) & _RING_MASK
                    slot = ring[index]
                    if slot is None:
                        slot = ring[index] = deque()
                    slot.append(run)
                    return
                if cycles > 0:
                    buckets[bucket] += cycles
                else:
                    self.buckets.charge(bucket, cycles)
                engine.schedule(cycles, run)
                return
            # Zero-cost transition: keep stepping inline.

    def on_finish(self) -> None:
        """Hook for subclasses (e.g. to notify waiters that depend on us)."""
