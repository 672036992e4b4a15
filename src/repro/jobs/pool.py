"""The process-pool path of :func:`repro.jobs.run_jobs`.

:class:`PoolSweep` owns all of the pool's state: the
``ProcessPoolExecutor``, the heap of pending attempts, the in-flight
futures with their hard deadlines, and the set of quarantined job ids.
Each turn of its loop dispatches every due attempt while a worker slot
is free, waits for a result (never past the next deadline, nor past
the next due attempt while a slot is free), settles what finished,
then expires deadlines. Results are settled *before* expiry is
checked, so a result that raced its own deadline wins.

* A dead worker poisons the whole shared pool, so recovery re-runs
  every in-flight attempt in a single-worker *quarantine* pool to find
  the culprit, which stays quarantined for good.
* A hung worker can only be reaped by tearing the pool down; its
  innocent in-flight siblings are re-queued uncharged.
* A value whose integrity digest does not match is a failed attempt
  (``corrupt_result``), never merged.
* A pool that cannot start, or breaks twice during one submit, hands
  its remaining attempts back to be finished inline (``degrade``).
"""

from __future__ import annotations

import heapq
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
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults import Fault
from repro.jobs.model import Job, normalize_value, result_digest
from repro.jobs.workers import arm_pool_worker, pool_shim

#: Upper bound on any single wait, so a Ctrl-C deferred by
#: :func:`_interruptible_wait` is re-raised promptly even when no
#: deadline or due attempt is near.
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
    """Runs ``(due, job, attempt)`` entries on a process pool.

    ``settle(job, attempt, status, value=, error=)`` records a terminal
    result, or returns the delay before the job's next attempt.
    """

    def __init__(self, worker: Callable, *, nworkers: int,
                 timeout: Optional[float], worker_faults: Tuple[Fault, ...],
                 fault_seed: int, settle: Callable, emit: Callable):
        self.worker = worker
        self.nworkers = nworkers
        self.timeout = timeout
        self.worker_faults = worker_faults
        self.fault_seed = fault_seed
        self.settle = settle
        self.emit = emit
        self._pool: Optional[ProcessPoolExecutor] = None
        self._seq = 0
        # heap of (due, seq, job, attempt)
        self._pending: List[Tuple[float, int, Job, int]] = []
        # future -> (job, attempt, hard deadline or None)
        self._inflight: Dict[object, Tuple[Job, int, Optional[float]]] = {}
        self._quarantined = set()  # job ids

    def _make_pool(self, max_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers, initializer=arm_pool_worker,
            initargs=(self.worker_faults, self.fault_seed))

    def _push(self, due: float, job: Job, attempt: int) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (due, self._seq, job, attempt))

    def _requeue(self, job: Job, attempt: int, reason: str) -> None:
        """Put an attempt back without charging it (innocent collateral
        of a pool teardown or fallback)."""
        self.emit("requeued", job=job.job_id, attempt=attempt, reason=reason)
        self._push(time.monotonic(), job, attempt)

    def _degrade(self, reason: str) -> None:
        self.emit("degrade", from_executor="pool", to_executor="inline",
                  reason=reason)

    # -- the main loop ---------------------------------------------------------

    def run(self, queue) -> list:
        """Drive every entry to a settled result. Returns the entries
        left to finish inline: all of them when the pool cannot start,
        the rest when it breaks twice during one submit, else none."""
        try:
            self._pool = self._make_pool(self.nworkers)
        except (NotImplementedError, OSError, ValueError) as exc:
            self._degrade(f"pool backend unavailable: {exc!r}")
            return queue
        for due, job, attempt in queue:
            self._push(due, job, attempt)
        try:
            while self._pending or self._inflight:
                reason = self._dispatch()
                if reason is not None:
                    self._degrade(reason)
                    return [(due, job, attempt) for due, _seq, job, attempt
                            in sorted(self._pending)]
                self._collect(self._wait_time())
                self._expire()
            return []
        finally:
            _terminate_pool(self._pool)

    def _dispatch(self) -> Optional[str]:
        """Submit every due attempt while a worker slot is free. Returns
        a reason when the pool broke twice during one submit; the
        attempt being submitted is then re-queued uncharged."""
        now = time.monotonic()
        while (self._pending and self._pending[0][0] <= now
               and len(self._inflight) < self.nworkers):
            _due, _seq, job, attempt = heapq.heappop(self._pending)
            self.emit("start", job=job.job_id, attempt=attempt,
                      executor="pool")
            if job.job_id in self._quarantined:
                self.emit("quarantine", job=job.job_id, attempt=attempt)
                self._run_isolated(job, attempt)
                continue
            try:
                future = self._submit(job)
            except BrokenProcessPool:
                # A worker died since the last wait and poisoned the
                # pool: recover the in-flight attempts, then retry once
                # on the rebuilt pool.
                self._recover_broken()
                try:
                    future = self._submit(job)
                except BrokenProcessPool as exc:
                    self._requeue(job, attempt, "executor fallback")
                    return f"pool broke twice during one submit: {exc!r}"
            deadline = None if self.timeout is None else now + self.timeout
            self._inflight[future] = (job, attempt, deadline)
        return None

    def _submit(self, job: Job):
        return self._pool.submit(pool_shim, self.worker, job.payload,
                                 job.job_id)

    def _wait_time(self) -> float:
        """How long to wait for a result: never past the next deadline
        or :data:`POLL_CAP`, and never past the next due attempt while
        a worker slot is free to take it."""
        now = time.monotonic()
        candidates = [POLL_CAP]
        if self._pending and len(self._inflight) < self.nworkers:
            candidates.append(self._pending[0][0] - now)
        candidates.extend(deadline - now for _job, _attempt, deadline
                          in self._inflight.values() if deadline is not None)
        return max(0.0, min(candidates))

    def _collect(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds and settle every finished
        future."""
        if not self._inflight:
            time.sleep(timeout)
            return
        done, _ = _interruptible_wait(list(self._inflight), timeout)
        for future in done:
            try:
                out = future.result()
            except BrokenProcessPool:
                # The whole pool is poisoned; every other in-flight
                # future is about to fail the same way. Recover together.
                self._recover_broken()
                return
            except Exception as exc:  # noqa: BLE001
                job, attempt, _deadline = self._inflight.pop(future)
                self._settle(job, attempt, "error", error=repr(exc))
            else:
                job, attempt, _deadline = self._inflight.pop(future)
                self._settle_output(job, attempt, out)

    def _expire(self) -> None:
        """Kill the first attempt past its hard deadline. Futures cannot
        cancel a *running* task, so the whole pool is torn down and
        rebuilt, and the innocent in-flight siblings are re-queued
        uncharged."""
        now = time.monotonic()
        expired = next((future for future, (_job, _attempt, deadline)
                        in self._inflight.items()
                        if deadline is not None and deadline <= now), None)
        if expired is None:
            return
        job, attempt, _deadline = self._inflight.pop(expired)
        _terminate_pool(self._pool)
        for sibling, sibling_attempt, _deadline in self._inflight.values():
            self._requeue(sibling, sibling_attempt, "timeout")
        self._inflight.clear()
        self._pool = self._make_pool(self.nworkers)
        self.emit("timeout", job=job.job_id, attempt=attempt)
        self._settle(job, attempt, "timeout",
                     error=f"exceeded {self.timeout}s wall-clock")

    # -- recovery --------------------------------------------------------------

    def _recover_broken(self) -> None:
        """A worker died and poisoned the shared pool. Rebuild it, then
        re-run every in-flight attempt once in its own quarantine pool:
        innocents complete unharmed, the culprit crashes alone and stays
        quarantined for good."""
        affected = list(self._inflight.values())
        self._inflight.clear()
        _terminate_pool(self._pool)
        self.emit("pool_broken", reason=f"{len(affected)} in flight")
        for job, attempt, _deadline in affected:
            self.emit("quarantine", job=job.job_id, attempt=attempt)
            if self._run_isolated(job, attempt) == "crashed":
                self._quarantined.add(job.job_id)
        self._pool = self._make_pool(self.nworkers)

    def _run_isolated(self, job: Job, attempt: int) -> str:
        """Run one attempt in a dedicated single-worker pool and settle
        it; returns its status."""
        solo = self._make_pool(1)
        try:
            future = solo.submit(pool_shim, self.worker, job.payload,
                                 job.job_id)
            try:
                out = future.result(timeout=self.timeout)
            except FuturesTimeoutError:
                status = "timeout"
                error = f"exceeded {self.timeout}s wall-clock"
            except BrokenProcessPool:
                status, error = "crashed", "worker process died"
            except Exception as exc:  # noqa: BLE001
                status, error = "error", repr(exc)
            else:
                self._settle_output(job, attempt, out)
                return "ok"
        finally:
            _terminate_pool(solo)
        self._settle(job, attempt, status, error=error)
        return status

    # -- settlement ------------------------------------------------------------

    def _settle_output(self, job: Job, attempt: int, out: dict) -> None:
        """Verify a worker's ``{"value", "digest"}`` and settle it."""
        value = normalize_value(out["value"])
        if result_digest(value) != out["digest"]:
            self.emit("corrupt_result", job=job.job_id, attempt=attempt,
                      expected=out["digest"])
            self._settle(job, attempt, "error",
                         error="result integrity digest mismatch")
        else:
            self._settle(job, attempt, "ok", value=value)

    def _settle(self, job: Job, attempt: int, status: str, **outcome) -> None:
        delay = self.settle(job, attempt, status, **outcome)
        if delay is not None:
            self._push(time.monotonic() + delay, job, attempt + 1)
