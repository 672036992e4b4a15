"""Exception hierarchy for the ParaLog reproduction.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from runtime simulation
failures.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent :class:`~repro.common.config.SimulationConfig`."""


class SimulationError(ReproError):
    """The simulated machine reached an illegal state.

    This always indicates a bug in the simulator or a workload that
    violates the machine contract (e.g. a store to an unmapped address),
    never a property of the monitored program.
    """


class SimulationTimeout(SimulationError):
    """``Engine.run(max_cycles=...)`` hit its cycle budget.

    Unlike :class:`DeadlockError` this says nothing about blocked actors
    — the simulation was still scheduling events when the budget ran
    out. ``cycle`` is the simulated time of the event that exceeded the
    budget (also committed to ``Engine.now`` before raising) and
    ``pending_events`` counts the events still on the heap, including
    the one that tripped the guard.
    """

    def __init__(self, message: str, cycle: int = 0, pending_events: int = 0):
        super().__init__(message)
        #: Simulated cycle reached when the budget was exceeded.
        self.cycle = cycle
        #: Events still pending on the heap at that moment.
        self.pending_events = pending_events


class DeadlockError(SimulationError):
    """No core can make progress (deadlock), or cores are busy without
    retiring anything (livelock).

    The ParaLog design argues deadlock freedom (delayed advertising
    flushes on stalls; TSO cycles are broken with versioned metadata),
    so surfacing a deadlock loudly is the correct behaviour for a
    reproduction: it means an ordering mechanism is wrong.

    Beyond the human-readable message, the exception carries everything
    the engine and platform know about the stuck state so it can be
    rendered as a crash report (:func:`repro.platform.results.crash_report`):
    the wait-for-graph cycle, per-core last-retired RIDs, a progress-table
    snapshot, log-buffer occupancies, and any faults a
    :class:`~repro.faults.FaultPlan` injected into the run.
    """

    def __init__(self, message: str, waiting: dict = None, *,
                 kind: str = "deadlock", cycle=None, graph: dict = None,
                 last_retired: dict = None, progress: dict = None,
                 log_occupancy: dict = None, injected: list = None,
                 trace_tail: list = None):
        super().__init__(message)
        #: Mapping of core name -> human-readable wait reason, for debugging.
        self.waiting = dict(waiting or {})
        #: ``"deadlock"`` (heap drained, actors blocked) or ``"livelock"``
        #: (watchdog: events flowing but nothing retired for a window).
        self.kind = kind
        #: Wait-for-graph cycle as a list of node names (actors and
        #: conditions, alternating), or None if no cycle was found.
        self.cycle = list(cycle) if cycle else None
        #: Full wait-for graph: node name -> list of successor node names.
        self.graph = dict(graph or {})
        #: Core name -> last retired RID (or instruction count).
        self.last_retired = dict(last_retired or {})
        #: Progress-table snapshot (tid -> advertised RID), if available.
        self.progress = dict(progress or {})
        #: Log-buffer name -> occupied bytes, if available.
        self.log_occupancy = dict(log_occupancy or {})
        #: Faults injected by the run's FaultPlan before the hang.
        self.injected = list(injected or [])
        #: Last-N flight-recorder events (ring-buffer snapshot) leading
        #: up to the hang, when a tracer was attached to the run.
        self.trace_tail = list(trace_tail or [])

    def __str__(self):
        parts = [super().__str__()]
        if self.waiting:
            waits = "; ".join(f"{name}: {reason}"
                              for name, reason in sorted(self.waiting.items()))
            parts.append(f"waiting: {waits}")
        if self.cycle:
            parts.append("wait-for cycle: " + " -> ".join(self.cycle))
        if self.injected:
            sites = ", ".join(str(entry) for entry in self.injected)
            parts.append(f"injected faults: {sites}")
        return " | ".join(parts)


class TraceFormatError(ReproError):
    """An encoded record stream or persistent trace archive is malformed.

    Raised by the byte-level codec (:mod:`repro.capture.compression`) on
    truncated or corrupt input, and by the archive reader
    (:mod:`repro.replay.format`) on bad magic, unsupported format
    versions, digest mismatches and inconsistent manifests. Unlike
    :class:`SimulationError` this describes *data at rest*: the
    simulator may be perfectly healthy while a file on disk is not.
    """


class WorkloadError(ReproError):
    """A workload kernel misused the program-building DSL."""
