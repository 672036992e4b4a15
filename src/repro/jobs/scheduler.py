"""The backend-agnostic sweep scheduler: deadlines, retries, fallback.

:class:`JobScheduler` owns every policy decision the backends must not
make: when an attempt is charged, when a job is retried (with the
deterministic capped backoff of :mod:`repro.jobs.backoff`), when an
attempt has passed its hard deadline and its worker must be killed,
when a delivered value fails its integrity digest, and when a pool that
cannot run is replaced by the inline backend. The backends only report
facts as :class:`~repro.jobs.executors.ExecutorEvent` streams.

The core loop is: dispatch every due pending attempt while the backend
has capacity, poll the backend for events (sized so the wait never
sleeps past the next backoff due-time or deadline), apply the events,
then expire deadlines. Events are applied *before* expiry is checked,
so a result that raced its own deadline wins — the job completed;
killing the worker for it would only waste work.

Every decision is traced through the ``jobs`` category: ``start`` /
``done`` / ``retry`` / ``timeout`` / ``quarantine`` / ``pool_broken``
plus ``requeued``, ``corrupt_result`` and ``degrade``.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.jobs.backoff import BackoffPolicy
from repro.jobs.executors import (
    ExecutorError,
    ExecutorEvent,
    InlineExecutor,
    PoolExecutor,
)
from repro.jobs.model import Job, JobResult, normalize_value, result_digest

#: Upper bound on any single poll wait, so a Ctrl-C deferred by the
#: pool's interruptible wait is re-raised promptly even when no
#: deadline or backoff due-time is near.
POLL_CAP = 1.0


class _Attempt:
    """One charged attempt of one job (a fresh id per dispatch, so a
    straggler event from a killed attempt can never settle its
    replacement)."""

    __slots__ = ("job", "attempts", "attempt_id")

    def __init__(self, job: Job, attempts: int, attempt_id: int):
        self.job = job
        self.attempts = attempts
        self.attempt_id = attempt_id


class JobScheduler:
    """Drives one sweep's job list through the pool or inline backend.

    ``use_pool`` picks the starting backend; a pool that cannot start,
    or that breaks twice during one submit, is replaced by the inline
    backend for the rest of the sweep. ``record`` is called exactly
    once per job with its terminal :class:`JobResult` — the runner
    wires it to the in-memory merge map and the checkpoint writer.
    """

    def __init__(self, worker: Callable, *, use_pool: bool, nworkers: int,
                 record: Callable[[JobResult], None],
                 timeout: Optional[float] = None, retries: int = 1,
                 backoff: Optional[BackoffPolicy] = None,
                 worker_faults: Tuple = (), fault_seed: int = 0,
                 tracer=None):
        self.worker = worker
        self.use_pool = use_pool
        self.nworkers = nworkers
        self.record = record
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.worker_faults = tuple(worker_faults or ())
        self.fault_seed = fault_seed
        self.tracer = tracer
        self._executor = None
        self._seq = 0
        self._next_attempt_id = 0
        self._pending: List[Tuple[float, int, _Attempt]] = []  # heapq
        self._inflight: Dict[int, _Attempt] = {}
        self._deadlines: Dict[int, float] = {}  # attempt_id -> monotonic

    # -- tracing ---------------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit("jobs", event, **fields)

    # -- backend ---------------------------------------------------------------

    def _start_executor(self) -> None:
        """Start the pool if the sweep asks for one, else (or if it
        cannot start) the always-available inline backend."""
        if self.use_pool:
            pool = PoolExecutor(self.worker, self.nworkers,
                                timeout=self.timeout,
                                worker_faults=self.worker_faults,
                                fault_seed=self.fault_seed)
            try:
                pool.start()
            except ExecutorError as exc:
                self._degrade(reason=str(exc))
            else:
                self._executor = pool
                return
        self._executor = InlineExecutor(self.worker)

    def _degrade(self, *, reason: str) -> None:
        self._emit("degrade", from_executor="pool", to_executor="inline",
                   reason=reason)
        self.use_pool = False

    def _fall_back(self, *, reason: str) -> None:
        """The pool failed mid-run: re-queue every in-flight attempt
        *uncharged* (the backend's failure is not the jobs' fault), tear
        the pool down and finish inline."""
        executor, self._executor = self._executor, None
        try:
            executor.stop()
        except Exception:  # noqa: BLE001 — already beyond saving
            pass
        now = time.monotonic()
        for attempt in list(self._inflight.values()):
            self._requeue(attempt, now, reason="executor fallback")
        self._inflight.clear()
        self._deadlines.clear()
        self._degrade(reason=reason)
        self._start_executor()

    # -- queue helpers ---------------------------------------------------------

    def _push(self, attempt: _Attempt, due: float) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (due, self._seq, attempt))

    def _requeue(self, attempt: _Attempt, now: float, *, reason: str) -> None:
        """Put an attempt back without charging it (innocent collateral:
        an aborted pool sibling, a backend fallback)."""
        self._emit("requeued", job=attempt.job.job_id,
                   attempt=attempt.attempts, reason=reason)
        self._push(_Attempt(attempt.job, attempt.attempts,
                            self._take_attempt_id()), now)

    def _take_attempt_id(self) -> int:
        self._next_attempt_id += 1
        return self._next_attempt_id

    def _take_inflight(self, attempt_id: int) -> Optional[_Attempt]:
        self._deadlines.pop(attempt_id, None)
        return self._inflight.pop(attempt_id, None)

    # -- the main loop ---------------------------------------------------------

    def run(self, jobs: List[Job]) -> None:
        """Drive every job to a terminal, recorded result."""
        now = time.monotonic()
        for job in jobs:
            self._push(_Attempt(job, 1, self._take_attempt_id()), now)
        self._start_executor()
        try:
            while self._pending or self._inflight:
                try:
                    self._turn()
                except ExecutorError as exc:
                    if not self.use_pool:
                        raise
                    self._fall_back(reason=str(exc))
        finally:
            executor, self._executor = self._executor, None
            if executor is not None:
                executor.stop()

    def _turn(self) -> None:
        """One scheduling turn: dispatch, poll, apply, expire."""
        now = time.monotonic()
        while (self._pending and self._pending[0][0] <= now
               and self._executor.can_accept()):
            _due, _seq, attempt = heapq.heappop(self._pending)
            self._inflight[attempt.attempt_id] = attempt
            self._emit("start", job=attempt.job.job_id,
                       attempt=attempt.attempts,
                       executor=self._executor.name)
            if self.timeout is not None:
                self._deadlines[attempt.attempt_id] = now + self.timeout
            self._executor.submit(attempt.attempt_id, attempt.job)
        for event in self._executor.poll(self._wait_time(time.monotonic())):
            self._apply(event)
        self._expire(time.monotonic())

    def _wait_time(self, now: float) -> float:
        """How long the backend may sleep: never past the next backoff
        due-time, the next deadline, or :data:`POLL_CAP`."""
        candidates = [POLL_CAP]
        if self._pending:
            candidates.append(max(0.0, self._pending[0][0] - now))
        if self._deadlines:
            candidates.append(max(0.0, min(self._deadlines.values()) - now))
        return min(candidates)

    # -- event application -----------------------------------------------------

    def _apply(self, event: ExecutorEvent) -> None:
        handler = getattr(self, f"_on_{event.kind}", None)
        if handler is not None:
            handler(event)

    def _on_result(self, event: ExecutorEvent) -> None:
        """A value (or failure) arrived; verify integrity and settle."""
        attempt = self._take_inflight(event.attempt_id)
        if attempt is None:
            return  # straggler from an attempt the scheduler already killed
        if event.status == "ok":
            value = normalize_value(event.value)
            if event.digest is not None and result_digest(value) != event.digest:
                self._emit("corrupt_result", job=attempt.job.job_id,
                           attempt=attempt.attempts,
                           expected=event.digest)
                self._settle(attempt, "error",
                             error="result integrity digest mismatch")
                return
            self._settle(attempt, "ok", value=value)
            return
        self._settle(attempt, event.status or "error", error=event.error)

    def _on_aborted(self, event: ExecutorEvent) -> None:
        """Innocent collateral of a pool teardown: re-queue uncharged."""
        attempt = self._take_inflight(event.attempt_id)
        if attempt is None:
            return
        self._requeue(attempt, time.monotonic(),
                      reason=event.reason or "aborted")

    def _on_quarantine(self, event: ExecutorEvent) -> None:
        attempt = self._inflight.get(event.attempt_id)
        if attempt is not None:
            self._emit("quarantine", job=attempt.job.job_id,
                       attempt=attempt.attempts)

    def _on_pool_broken(self, event: ExecutorEvent) -> None:
        self._emit("pool_broken", reason=event.reason)

    # -- hard deadlines --------------------------------------------------------

    def _expire(self, now: float) -> None:
        expired = [attempt_id for attempt_id, deadline
                   in self._deadlines.items() if deadline <= now]
        for attempt_id in expired:
            attempt = self._take_inflight(attempt_id)
            if attempt is None:
                continue  # settled by a sibling's collateral events
            for event in self._executor.kill_attempt(attempt_id, "timeout"):
                self._apply(event)  # aborted siblings
            self._emit("timeout", job=attempt.job.job_id,
                       attempt=attempt.attempts)
            self._settle(attempt, "timeout",
                         error=f"exceeded {self.timeout}s wall-clock")

    # -- settlement ------------------------------------------------------------

    def _settle(self, attempt: _Attempt, status: str, *, value=None,
                error=None) -> None:
        """An attempt finished with ``status``: retry (with backoff) or
        record the terminal result."""
        if status == "ok":
            self.record(JobResult(attempt.job.job_id, "ok", value=value,
                                  attempts=attempt.attempts))
            return
        if attempt.attempts <= self.retries:
            delay = self.backoff.delay(attempt.job.job_id, attempt.attempts)
            self._emit("retry", job=attempt.job.job_id, status=status,
                       delay=round(delay, 4))
            self._push(_Attempt(attempt.job, attempt.attempts + 1,
                                self._take_attempt_id()),
                       time.monotonic() + delay)
            return
        self.record(JobResult(attempt.job.job_id, status, error=error,
                              attempts=attempt.attempts))
