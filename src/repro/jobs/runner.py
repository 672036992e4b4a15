"""The parallel sweep executor: :func:`run_jobs`.

Every sweep in the repo — differential seed sweeps, replay fan-outs,
the figure regeneration loops — is a list of *independent*
cells (seed × scheme × lifeguard, benchmark × thread count, ...).
:func:`run_jobs` runs such a list inline or on a process pool
(:mod:`repro.jobs.pool`) while keeping the output *indistinguishable
from the serial run*:

* **One rule picks the path.** The process pool runs the sweep when
  there is more than one worker, a per-attempt ``timeout`` to enforce,
  or ``worker_faults`` to arm; otherwise jobs run inline in this
  process. Both process a job identically, so the choice never changes
  a result. A pool that cannot start (no ``sem_open``, no fork) or
  breaks twice during one submit falls back to inline, re-queuing
  in-flight attempts uncharged.
* **Deterministic merge.** The caller enumerates jobs in a canonical
  order and each job gets a stable string id. Workers complete in
  whatever order the OS schedules them — or die, hang and get retried —
  but results are merged back in canonical job order, so the merged
  output of any worker-count/chaos combination is byte-identical to
  ``nworkers=1`` (the simulator itself is deterministic per seed; no
  wall-clock values are allowed into job values).
* **Hard deadlines and bounded retries.** Each dispatched attempt gets
  one hard deadline, ``timeout`` seconds out; a hung attempt is killed
  when it passes. Every failed attempt is retried at most ``retries``
  times, after the deterministic delay of :func:`retry_delay`.
* **Checkpoint/resume.** Every terminal result is appended (and
  flushed) to a JSONL checkpoint, so a dead coordinator loses only its
  in-flight cells, which are deterministic and safe to recompute. An
  interrupted sweep restarted with ``resume=True`` skips exactly the
  recovered job ids. A ``KeyboardInterrupt`` mid-sweep fsyncs the
  checkpoint before propagating, and the CLI exits with the documented
  abnormal code (:data:`repro.faults.EXIT_ABNORMAL`).

Every decision is traced through the ``jobs`` category: ``start`` /
``done`` / ``retry`` / ``timeout`` / ``quarantine`` / ``pool_broken``
plus ``requeued``, ``corrupt_result``, ``degrade``, ``resume``,
``interrupted`` and ``sweep_done``.

The ``worker`` callable must be a **module-level function** whenever
the pool may run it (it is pickled by reference into worker processes)
taking the job's JSON payload and returning a JSON-serializable value.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Callable, List, Optional, Sequence

from repro.faults import Fault
from repro.jobs.checkpoint import CheckpointWriter, load_checkpoint
from repro.jobs.model import Job, JobResult, normalize_value
from repro.jobs.pool import PoolSweep

#: Retry backoff: the delay after the ``attempt``-th failure is
#: ``min(CAP, BASE * FACTOR ** (attempt - 1))``, stretched by up to
#: ``JITTER`` (fractionally) and re-capped at ``CAP``.
BACKOFF_BASE = 0.1
BACKOFF_FACTOR = 2.0
BACKOFF_CAP = 5.0
BACKOFF_JITTER = 0.25
BACKOFF_SEED = 0


def retry_delay(job_id: str, attempt: int) -> float:
    """Seconds to wait before re-dispatching ``job_id`` after its
    ``attempt``-th failed attempt (numbering from 1).

    The jitter is a unit value hashed from ``(seed, job_id, attempt)`` —
    never the wall clock, never a shared RNG — so a re-run of the same
    sweep sleeps the same delays in the same places, and attempts of
    different jobs decorrelate without touching ``random`` state the
    simulator might share.
    """
    raw = min(BACKOFF_CAP,
              BACKOFF_BASE * BACKOFF_FACTOR ** max(0, attempt - 1))
    digest = hashlib.sha256(
        f"{BACKOFF_SEED}:{job_id}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2 ** 64
    return min(BACKOFF_CAP, raw * (1.0 + BACKOFF_JITTER * unit))


def _run_inline(queue, worker: Callable, settle: Callable,
                emit: Callable) -> None:
    """Run ``(due, job, attempt)`` entries in order in this process,
    retrying each failure in place. No pickling and no deadlines;
    worker faults are never armed here (a ``kill`` would take the
    coordinator down with it)."""
    for due, job, attempt in queue:
        while True:
            time.sleep(max(0.0, due - time.monotonic()))
            emit("start", job=job.job_id, attempt=attempt,
                 executor="inline")
            try:
                value = worker(job.payload)
            except Exception as exc:  # noqa: BLE001 — isolate the cell
                delay = settle(job, attempt, "error", error=repr(exc))
            else:
                delay = settle(job, attempt, "ok",
                               value=normalize_value(value))
            if delay is None:
                break
            due, attempt = time.monotonic() + delay, attempt + 1


def run_jobs(jobs: List[Job], worker: Callable, *, nworkers: int = 1,
             timeout: Optional[float] = None, retries: int = 1,
             checkpoint_path: Optional[str] = None, resume: bool = False,
             worker_faults: Sequence[Fault] = (), fault_seed: int = 0,
             tracer=None) -> List[JobResult]:
    """Run every job; returns results in canonical (input) order. See
    the module docstring for the execution model."""
    if nworkers < 1:
        raise ValueError("nworkers must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError("timeout must be a finite number > 0")
    if resume and not checkpoint_path:
        raise ValueError("resume=True requires a checkpoint_path")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate job ids in sweep")

    def emit(event: str, **fields) -> None:
        if tracer is not None:
            tracer.emit("jobs", event, **fields)

    results = {}
    if resume:
        results = load_checkpoint(checkpoint_path, tracer=tracer)
        emit("resume", skipped=len(results))
    checkpoint = (CheckpointWriter(checkpoint_path)
                  if checkpoint_path else None)

    def settle(job: Job, attempt: int, status: str, *, value=None,
               error=None) -> Optional[float]:
        """An attempt ended with ``status``: record the terminal result,
        or return the delay before the job's next attempt."""
        if status != "ok" and attempt <= retries:
            delay = retry_delay(job.job_id, attempt)
            emit("retry", job=job.job_id, status=status,
                 delay=round(delay, 4))
            return delay
        result = JobResult(job.job_id, status, value=value, error=error,
                           attempts=attempt)
        results[job.job_id] = result
        if checkpoint is not None:
            checkpoint.append(result.to_json())
        emit("done", job=job.job_id, status=status, attempts=attempt)
        return None

    now = time.monotonic()
    queue = [(now, job, 1) for job in jobs if job.job_id not in results]
    try:
        if nworkers > 1 or timeout is not None or worker_faults:
            queue = PoolSweep(worker, nworkers=nworkers, timeout=timeout,
                              worker_faults=tuple(worker_faults),
                              fault_seed=fault_seed, settle=settle,
                              emit=emit).run(queue)
        _run_inline(queue, worker, settle, emit)
    except KeyboardInterrupt:
        # An interrupt never loses a completed result: sync the
        # checkpoint before propagating so the CLI can exit with the
        # documented abnormal code.
        if checkpoint is not None:
            checkpoint.sync()
        emit("interrupted", completed=len(results),
             remaining=len(jobs) - len(results))
        raise
    finally:
        if checkpoint is not None:
            checkpoint.close()
    emit("sweep_done", total=len(jobs),
         failed=sum(1 for r in results.values() if not r.ok))
    return [results[job_id] for job_id in ids]
