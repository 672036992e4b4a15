"""The worker-process path of :func:`repro.jobs.run_jobs`.

:class:`PoolSweep` runs a sweep on private, long-lived worker
processes, one per *slot*. A slot owns its process, the coordinator's
end of a duplex ``multiprocessing`` pipe to it, the job it is running
and that job's hard deadline; no two slots share anything, so one
slot's failure touches no other. Each turn of the loop dispatches
pending jobs to idle slots, waits on the busy slots' connections
(never past the next deadline or :data:`POLL_CAP`), settles every
reply, then expires deadlines. Replies are settled *before* expiry is
checked, so a result that raced its own deadline wins. Every job runs
exactly once.

* End of file on a slot's connection means its process died: the job
  ends ``crashed``. A passed deadline kills that slot's process only:
  the job ends ``timeout``. Either way the slot starts a fresh process
  for its next job.
* The coordinator JSON-normalizes each value; one that does not
  normalize, or does not pickle, ends ``error`` like a worker that
  raised.
* A worker process that cannot be started (``OSError``) stops
  dispatch: the busy slots finish and the undispatched jobs are handed
  back to be finished inline (``degrade``).

A slot starts its process when it gets its first job, so a sweep
starts at most ``min(nworkers, len(jobs))`` processes, plus one per
crashed or timed-out job that is followed by another. Worker
processes ignore SIGINT; the coordinator kills and joins every one of
them before it returns, on Ctrl-C too.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Callable, Deque, List, Optional

from repro.jobs.model import Job, normalize_value

#: Upper bound on any single wait of the coordinator.
POLL_CAP = 1.0


def _serve(conn, worker: Callable) -> None:
    """A slot's process: run each payload received on ``conn`` and send
    back ``(True, value)``, or ``(False, repr(exc))`` when the worker
    raised or its value does not pickle, until the coordinator's end
    closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, worker(payload))
        except Exception as exc:  # noqa: BLE001 — isolate the cell
            reply = (False, repr(exc))
        try:
            conn.send(reply)
        except Exception as exc:  # noqa: BLE001 — the value does not pickle
            conn.send((False, repr(exc)))


class _Slot:
    """One worker process, the coordinator's end of its pipe, and the
    job it is running with that job's hard deadline."""

    __slots__ = ("process", "conn", "job", "deadline")

    def __init__(self):
        self.process = self.conn = self.job = self.deadline = None

    def start(self, worker: Callable) -> None:
        """Start a fresh worker process; raises ``OSError`` when the
        platform cannot."""
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(target=_serve, args=(child, worker))
        try:
            process.start()
        finally:
            # Only the worker may hold its end, or its death is no EOF.
            child.close()
        self.process, self.conn = process, conn

    def stop(self) -> None:
        """Kill and reap the process, whatever it is doing."""
        if self.process is not None:
            self.process.kill()
            self.process.join()
            self.conn.close()
        self.process = self.conn = None


class PoolSweep:
    """Runs jobs on private worker processes, one per slot.

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

    def run(self, jobs: List[Job]) -> List[Job]:
        """Drive every job to a settled result. Returns the jobs left to
        finish inline: none, unless a worker process could not be
        started."""
        pending: Deque[Job] = deque(jobs)
        slots = [_Slot() for _ in range(min(self.nworkers, len(jobs)))]
        left: List[Job] = []
        try:
            while True:
                failure = self._dispatch(pending, slots)
                if failure is not None:
                    self.emit("degrade", from_executor="pool",
                              to_executor="inline",
                              reason=f"worker process unavailable: "
                                     f"{failure!r}")
                    left = list(pending)
                    pending.clear()
                busy = [slot for slot in slots if slot.job is not None]
                if not busy:
                    return left
                self._collect(busy)
                self._expire(busy)
        finally:
            for slot in slots:
                slot.stop()

    def _dispatch(self, pending: Deque[Job], slots) -> Optional[OSError]:
        """Hand pending jobs to idle slots, starting a process where a
        slot has none. Returns the error when one cannot be started."""
        for slot in slots:
            if not pending:
                break
            if slot.job is not None:
                continue
            if slot.process is None:
                try:
                    slot.start(self.worker)
                except OSError as exc:
                    return exc
            slot.job = pending.popleft()
            self.emit("start", job=slot.job.job_id, executor="pool")
            if self.timeout is not None:
                slot.deadline = time.monotonic() + self.timeout
            try:
                slot.conn.send(slot.job.payload)
            except OSError:
                pass  # the idle process was killed: the wait reads its EOF
        return None

    def _finish(self, slot: _Slot, status: str, **result) -> None:
        job, slot.job = slot.job, None
        self.settle(job, status, **result)

    def _collect(self, busy) -> None:
        """Wait for replies, never past the next deadline or
        :data:`POLL_CAP`, and settle every slot that has one."""
        now = time.monotonic()
        timeout = max(0.0, min([POLL_CAP] + [
            slot.deadline - now for slot in busy
            if slot.deadline is not None]))
        ready = wait([slot.conn for slot in busy], timeout)
        for slot in busy:
            if slot.conn not in ready:
                continue
            try:
                ok, value = slot.conn.recv()
            except (EOFError, OSError):
                slot.stop()
                self._finish(slot, "crashed", error="worker process died")
                continue
            if not ok:
                self._finish(slot, "error", error=value)
                continue
            try:
                value = normalize_value(value)
            except Exception as exc:  # noqa: BLE001
                self._finish(slot, "error", error=repr(exc))
            else:
                self._finish(slot, "ok", value=value)

    def _expire(self, busy) -> None:
        """Kill the process of each slot whose job is past its hard
        deadline; the job ends ``timeout``."""
        now = time.monotonic()
        for slot in busy:
            if slot.job is not None and slot.deadline is not None \
                    and slot.deadline <= now:
                slot.stop()
                self.emit("timeout", job=slot.job.job_id)
                self._finish(slot, "timeout",
                             error=f"exceeded {self.timeout}s wall-clock")
