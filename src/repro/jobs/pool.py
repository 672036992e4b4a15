"""The process-pool path of :func:`repro.jobs.run_jobs`.

:class:`PoolSweep` owns all of the pool's state: the
``ProcessPoolExecutor``, the FIFO of pending jobs and the in-flight
futures with their hard deadlines. Each turn of its loop dispatches
pending jobs while a worker slot is free, waits for a result (never
past the next deadline), settles what finished, then expires
deadlines. Results are settled *before* expiry is checked, so a result
that raced its own deadline wins. Every job is settled once.

* A dead worker poisons the whole shared pool, so recovery re-runs
  every in-flight job alone in a single-worker *quarantine* pool to
  find the culprit, which ends ``crashed``.
* A hung worker can only be reaped by tearing the pool down; its
  innocent in-flight siblings are re-queued.
* The coordinator JSON-normalizes each value; one that does not
  normalize ends ``error``, like a worker that raised.
* A pool that cannot start, or breaks twice during one submit, hands
  its remaining jobs back to be finished inline (``degrade``).
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.jobs.model import Job, normalize_value

#: Upper bound on any single wait, so a Ctrl-C deferred by
#: :func:`_interruptible_wait` is re-raised promptly even when no
#: deadline is near.
POLL_CAP = 1.0


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


class PoolSweep:
    """Runs jobs on a process pool.

    ``settle(job, status, value=, error=)`` records a job's terminal
    result.
    """

    def __init__(self, worker: Callable, *, nworkers: int,
                 timeout: Optional[float], settle: Callable, emit: Callable):
        self.worker = worker
        self.nworkers = nworkers
        self.timeout = timeout
        self.settle = settle
        self.emit = emit
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pending: Deque[Job] = deque()
        # future -> (job, hard deadline or None)
        self._inflight: Dict[object, Tuple[Job, Optional[float]]] = {}

    def _requeue(self, job: Job, reason: str) -> None:
        """Put a job back (innocent collateral of a pool teardown or
        fallback)."""
        self.emit("requeued", job=job.job_id, reason=reason)
        self._pending.append(job)

    def _degrade(self, reason: str) -> None:
        self.emit("degrade", from_executor="pool", to_executor="inline",
                  reason=reason)

    # -- the main loop ---------------------------------------------------------

    def run(self, jobs) -> list:
        """Drive every job to a settled result. Returns the jobs left to
        finish inline: all of them when the pool cannot start, the rest
        when it breaks twice during one submit, else none."""
        try:
            self._pool = ProcessPoolExecutor(max_workers=self.nworkers)
        except (NotImplementedError, OSError, ValueError) as exc:
            self._degrade(f"pool backend unavailable: {exc!r}")
            return jobs
        self._pending.extend(jobs)
        try:
            while self._pending or self._inflight:
                reason = self._dispatch()
                if reason is not None:
                    self._degrade(reason)
                    return list(self._pending)
                self._collect(self._wait_time())
                self._expire()
            return []
        finally:
            _terminate_pool(self._pool)

    def _dispatch(self) -> Optional[str]:
        """Submit pending jobs while a worker slot is free. Returns a
        reason when the pool broke twice during one submit; the job
        being submitted is then re-queued."""
        now = time.monotonic()
        while self._pending and len(self._inflight) < self.nworkers:
            job = self._pending.popleft()
            self.emit("start", job=job.job_id, executor="pool")
            try:
                future = self._submit(job)
            except BrokenProcessPool:
                # A worker died since the last wait and poisoned the
                # pool: recover the in-flight jobs, then submit once
                # more on the rebuilt pool.
                self._recover_broken()
                try:
                    future = self._submit(job)
                except BrokenProcessPool as exc:
                    self._requeue(job, "executor fallback")
                    return f"pool broke twice during one submit: {exc!r}"
            deadline = None if self.timeout is None else now + self.timeout
            self._inflight[future] = (job, deadline)
        return None

    def _submit(self, job: Job):
        return self._pool.submit(self.worker, job.payload)

    def _wait_time(self) -> float:
        """How long to wait for a result: never past the next deadline
        or :data:`POLL_CAP`."""
        now = time.monotonic()
        return max(0.0, min([POLL_CAP] + [
            deadline - now for _job, deadline in self._inflight.values()
            if deadline is not None]))

    def _collect(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds and settle every finished
        future."""
        done, _ = _interruptible_wait(list(self._inflight), timeout)
        for future in done:
            try:
                value = normalize_value(future.result())
            except BrokenProcessPool:
                # The whole pool is poisoned; every other in-flight
                # future is about to fail the same way. Recover together.
                self._recover_broken()
                return
            except Exception as exc:  # noqa: BLE001
                job, _deadline = self._inflight.pop(future)
                self.settle(job, "error", error=repr(exc))
            else:
                job, _deadline = self._inflight.pop(future)
                self.settle(job, "ok", value=value)

    def _expire(self) -> None:
        """Kill the first job past its hard deadline. Futures cannot
        cancel a *running* task, so the whole pool is torn down and
        rebuilt, and the innocent in-flight siblings are re-queued."""
        now = time.monotonic()
        expired = next((future for future, (_job, deadline)
                        in self._inflight.items()
                        if deadline is not None and deadline <= now), None)
        if expired is None:
            return
        job, _deadline = self._inflight.pop(expired)
        _terminate_pool(self._pool)
        for sibling, _deadline in self._inflight.values():
            self._requeue(sibling, "timeout")
        self._inflight.clear()
        self._pool = ProcessPoolExecutor(max_workers=self.nworkers)
        self.emit("timeout", job=job.job_id)
        self.settle(job, "timeout",
                    error=f"exceeded {self.timeout}s wall-clock")

    # -- recovery --------------------------------------------------------------

    def _recover_broken(self) -> None:
        """A worker died and poisoned the shared pool. Rebuild it, then
        re-run every in-flight job once in its own quarantine pool:
        innocents complete unharmed, the culprit crashes alone."""
        affected = [job for job, _deadline in self._inflight.values()]
        self._inflight.clear()
        _terminate_pool(self._pool)
        self.emit("pool_broken", reason=f"{len(affected)} in flight")
        for job in affected:
            self.emit("quarantine", job=job.job_id)
            self._run_isolated(job)
        self._pool = ProcessPoolExecutor(max_workers=self.nworkers)

    def _run_isolated(self, job: Job) -> None:
        """Run one job in a dedicated single-worker pool and settle
        it."""
        solo = ProcessPoolExecutor(max_workers=1)
        try:
            future = solo.submit(self.worker, job.payload)
            try:
                value = normalize_value(future.result(timeout=self.timeout))
            except FuturesTimeoutError:
                status = "timeout"
                error = f"exceeded {self.timeout}s wall-clock"
            except BrokenProcessPool:
                status, error = "crashed", "worker process died"
            except Exception as exc:  # noqa: BLE001
                status, error = "error", repr(exc)
            else:
                self.settle(job, "ok", value=value)
                return
        finally:
            _terminate_pool(solo)
        self.settle(job, status, error=error)
