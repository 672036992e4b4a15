"""The two sweep-executor backends behind one small protocol.

A backend owns *where* jobs physically run; the scheduler
(:mod:`repro.jobs.scheduler`) owns everything about *when* — hard
deadlines, retries, backoff, merge order. The protocol between them is
event-based: the scheduler submits attempts while
:meth:`Executor.can_accept` holds, then drains
:class:`ExecutorEvent` batches from :meth:`Executor.poll`.

The scheduler picks the backend from the sweep's inputs, never from a
user option: the pool when there is more than one worker, a wall-clock
timeout to enforce, or worker faults to arm; inline otherwise.

* :class:`InlineExecutor` — jobs run synchronously in the scheduler's
  process, with no pickling and no deadline enforcement. It cannot fail
  to start, so it is also where a pool that cannot run falls back to.
* :class:`PoolExecutor` — the ``ProcessPoolExecutor`` path. A dead
  worker poisons the whole shared pool, so recovery re-runs every
  in-flight attempt in a single-worker *quarantine* pool to find the
  culprit (which stays quarantined for good), and a hung worker can
  only be reaped by tearing the pool down — innocent in-flight
  siblings come back as ``aborted`` events and are re-queued uncharged.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults import Fault
from repro.jobs.model import Job, normalize_value, result_digest
from repro.jobs.workers import arm_pool_worker, pool_shim


class ExecutorError(RuntimeError):
    """The pool cannot start, or broke twice during one submit.

    The scheduler reacts by re-queuing every in-flight attempt
    (uncharged) and finishing the sweep inline.
    """


@dataclass
class ExecutorEvent:
    """One observation reported by a backend to the scheduler.

    ``kind`` is one of ``result`` (an attempt finished with ``status``
    ok/error/crashed/timeout), ``aborted`` (an innocent attempt was
    collaterally cancelled — re-queue without charging it),
    ``pool_broken`` and ``quarantine`` (informational, traced by the
    scheduler).
    """

    kind: str
    attempt_id: Optional[int] = None
    status: Optional[str] = None
    value: object = None
    digest: Optional[str] = None
    error: Optional[str] = None
    reason: Optional[str] = None


class Executor:
    """The backend protocol (see the module docstring)."""

    name = "abstract"

    def start(self) -> None:
        """Bring the backend up; raise :class:`ExecutorError` if it
        cannot run in this environment."""
        raise NotImplementedError

    def can_accept(self) -> bool:
        """True when a further :meth:`submit` would not oversubscribe."""
        raise NotImplementedError

    def submit(self, attempt_id: int, job: Job) -> None:
        """Hand one attempt to the backend."""
        raise NotImplementedError

    def poll(self, timeout: Optional[float]) -> List[ExecutorEvent]:
        """Wait up to ``timeout`` seconds (None = until something
        happens) and return every new event."""
        raise NotImplementedError

    def kill_attempt(self, attempt_id: int, reason: str) -> List[ExecutorEvent]:
        """Forcibly stop an attempt past its hard deadline. Returns
        collateral events (``aborted`` siblings); the caller settles the
        killed attempt itself."""
        raise NotImplementedError

    def stop(self) -> None:
        """Tear the backend down, killing any remaining workers."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# inline
# ---------------------------------------------------------------------------

class InlineExecutor(Executor):
    """Serial in-process execution, always available.

    Jobs run synchronously inside :meth:`poll`, one at a time, with no
    pickling and no deadline enforcement. Worker-level chaos faults are
    never armed here (a ``kill`` would take the coordinator down with
    it): a sweep with worker faults always asks for the pool.
    """

    name = "inline"

    def __init__(self, worker_fn: Callable):
        self.worker_fn = worker_fn
        self._queued: Optional[Tuple[int, Job]] = None

    def start(self) -> None:
        """Nothing to bring up."""

    def can_accept(self) -> bool:
        """One job at a time."""
        return self._queued is None

    def submit(self, attempt_id: int, job: Job) -> None:
        """Queue the single next job."""
        self._queued = (attempt_id, job)

    def poll(self, timeout: Optional[float]) -> List[ExecutorEvent]:
        """Run the queued job to completion (or sleep out ``timeout``
        when idle, e.g. while the scheduler waits out a backoff)."""
        if self._queued is None:
            time.sleep(timeout if timeout is not None else 0.01)
            return []
        attempt_id, job = self._queued
        self._queued = None
        try:
            value = self.worker_fn(job.payload)
        except Exception as exc:  # noqa: BLE001 — isolate the cell
            return [ExecutorEvent(kind="result", attempt_id=attempt_id,
                                  status="error", error=repr(exc))]
        value = normalize_value(value)
        return [ExecutorEvent(kind="result", attempt_id=attempt_id,
                              status="ok", value=value,
                              digest=result_digest(value))]

    def kill_attempt(self, attempt_id: int, reason: str) -> List[ExecutorEvent]:
        """Nothing to kill: an inline attempt has always finished by the
        time the scheduler checks deadlines."""
        return []

    def stop(self) -> None:
        """Nothing to tear down."""
        self._queued = None


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

def _interruptible_wait(futures, timeout):
    """``concurrent.futures.wait`` with SIGINT *deferred*, not lost.

    A ``KeyboardInterrupt`` raised inside ``wait()``'s lock-acquisition
    loop (``_AcquireFutures.__enter__`` takes every future's condition
    lock in a Python-level loop) leaks whatever locks were already
    taken; the pool's manager thread then deadlocks in
    ``Future.cancel()`` during shutdown and teardown hangs forever.
    So for the duration of one (POLL_CAP-bounded) wait the handler is
    swapped for a latch, and a caught interrupt is re-raised right
    after — at a point where no future locks are held."""
    if threading.current_thread() is not threading.main_thread():
        return wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
    caught = []
    previous = signal.signal(signal.SIGINT,
                             lambda _sig, _frame: caught.append(1))
    try:
        return wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
    finally:
        signal.signal(signal.SIGINT, previous)
        if caught:
            raise KeyboardInterrupt


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers may be hung: SIGTERM every worker
    process, then reap. Safe on an already-broken pool. The manager
    thread is joined with a *bounded* timeout — teardown of a corrupted
    pool must degrade to a leaked thread, never a deadlocked sweep."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    manager = getattr(pool, "_executor_manager_thread", None)
    if manager is not None:
        manager.join(timeout=5.0)


class PoolExecutor(Executor):
    """The ``ProcessPoolExecutor`` backend. A job id that broke a shared
    pool once only ever runs in single-worker quarantine pools from then
    on."""

    name = "pool"

    def __init__(self, worker_fn: Callable, nworkers: int, *,
                 timeout: Optional[float] = None,
                 worker_faults: Tuple[Fault, ...] = (),
                 fault_seed: int = 0):
        self.worker_fn = worker_fn
        self.nworkers = nworkers
        self.timeout = timeout
        self.worker_faults = tuple(worker_faults or ())
        self.fault_seed = fault_seed
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[object, int] = {}  # future -> attempt_id
        self._jobs: Dict[int, Job] = {}         # attempt_id -> Job
        self._quarantined = set()               # job ids
        self._buffer: List[ExecutorEvent] = []

    def _make_pool(self, max_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers, initializer=arm_pool_worker,
            initargs=(self.worker_faults, self.fault_seed))

    def start(self) -> None:
        """Build the shared pool; unavailable multiprocessing (missing
        sem_open, no fork) falls back to inline."""
        try:
            self._pool = self._make_pool(self.nworkers)
        except (NotImplementedError, OSError, ValueError) as exc:
            raise ExecutorError(f"pool backend unavailable: {exc!r}")

    def can_accept(self) -> bool:
        """One in-flight future per pool worker."""
        return len(self._inflight) < self.nworkers

    def submit(self, attempt_id: int, job: Job) -> None:
        """Submit to the shared pool — or run immediately in a
        quarantine pool when the job has previously broken one."""
        self._jobs[attempt_id] = job
        if job.job_id in self._quarantined:
            self._buffer.append(ExecutorEvent(kind="quarantine",
                                              attempt_id=attempt_id))
            status, value, digest, error = self._run_isolated(job)
            self._jobs.pop(attempt_id, None)
            self._buffer.append(ExecutorEvent(
                kind="result", attempt_id=attempt_id, status=status,
                value=value, digest=digest, error=error))
            return
        try:
            future = self._pool.submit(pool_shim, self.worker_fn,
                                       job.payload, job.job_id)
        except BrokenProcessPool:
            # A worker died since the last poll and poisoned the pool
            # before this submit. Recover the in-flight attempts first,
            # then retry once on the rebuilt pool.
            self._buffer.extend(self._recover_broken())
            try:
                future = self._pool.submit(pool_shim, self.worker_fn,
                                           job.payload, job.job_id)
            except BrokenProcessPool as exc:
                raise ExecutorError(f"pool broke twice during one "
                                    f"submit: {exc!r}")
        self._inflight[future] = attempt_id

    def poll(self, timeout: Optional[float]) -> List[ExecutorEvent]:
        """Drain buffered events and completed futures."""
        events, self._buffer = self._buffer, []
        if not self._inflight:
            if not events and timeout:
                time.sleep(timeout)
            return events
        done, _ = _interruptible_wait(list(self._inflight),
                                      0 if events else timeout)
        broken = False
        for future in done:
            attempt_id = self._inflight.pop(future)
            try:
                out = future.result()
            except BrokenProcessPool:
                # The whole pool is poisoned; every other in-flight
                # future is about to fail the same way. Recover together.
                self._inflight[future] = attempt_id
                broken = True
                break
            except Exception as exc:  # noqa: BLE001
                self._jobs.pop(attempt_id, None)
                events.append(ExecutorEvent(kind="result",
                                            attempt_id=attempt_id,
                                            status="error", error=repr(exc)))
            else:
                self._jobs.pop(attempt_id, None)
                events.append(ExecutorEvent(
                    kind="result", attempt_id=attempt_id, status="ok",
                    value=out["value"], digest=out["digest"]))
        if broken:
            events.extend(self._recover_broken())
        return events

    def _recover_broken(self) -> List[ExecutorEvent]:
        """A worker died and poisoned the shared pool. Rebuild it, then
        re-run every in-flight attempt once in its own quarantine pool:
        innocents complete unharmed, the culprit crashes alone and stays
        quarantined for good."""
        affected = list(self._inflight.values())
        self._inflight.clear()
        _terminate_pool(self._pool)
        events = [ExecutorEvent(kind="pool_broken",
                                reason=f"{len(affected)} in flight")]
        for attempt_id in affected:
            job = self._jobs.pop(attempt_id)
            events.append(ExecutorEvent(kind="quarantine",
                                        attempt_id=attempt_id))
            status, value, digest, error = self._run_isolated(job)
            if status == "crashed":
                self._quarantined.add(job.job_id)
            events.append(ExecutorEvent(
                kind="result", attempt_id=attempt_id, status=status,
                value=value, digest=digest, error=error))
        self._pool = self._make_pool(self.nworkers)
        return events

    def _run_isolated(self, job: Job):
        """One attempt in a dedicated single-worker pool."""
        solo = self._make_pool(1)
        try:
            future = solo.submit(pool_shim, self.worker_fn, job.payload,
                                 job.job_id)
            try:
                out = future.result(timeout=self.timeout)
            except FuturesTimeoutError:
                return ("timeout", None, None,
                        f"exceeded {self.timeout}s wall-clock")
            except BrokenProcessPool:
                return ("crashed", None, None, "worker process died")
            except Exception as exc:  # noqa: BLE001
                return ("error", None, None, repr(exc))
            return ("ok", out["value"], out["digest"], None)
        finally:
            _terminate_pool(solo)

    def kill_attempt(self, attempt_id: int, reason: str) -> List[ExecutorEvent]:
        """A hard deadline passed: the worker is hung. Futures can't cancel a
        *running* task, so tear the whole pool down, abort innocent
        in-flight siblings (re-queued uncharged by the scheduler) and
        rebuild."""
        events = []
        _terminate_pool(self._pool)
        for future, aid in list(self._inflight.items()):
            self._jobs.pop(aid, None)
            if aid != attempt_id:
                events.append(ExecutorEvent(kind="aborted", attempt_id=aid,
                                            reason=reason))
        self._inflight.clear()
        self._pool = self._make_pool(self.nworkers)
        return events

    def stop(self) -> None:
        """Kill the shared pool."""
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None
