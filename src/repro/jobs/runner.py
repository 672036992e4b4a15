"""The parallel sweep executor: :func:`run_jobs`.

Every sweep in the repo — differential seed sweeps and the figure
regeneration loops — is a list of *independent*
cells (seed × scheme × lifeguard, benchmark × thread count, ...).
:func:`run_jobs` runs such a list inline or on private worker
processes, one per slot (:mod:`repro.jobs.pool`), while keeping the
output *indistinguishable from the serial run*:

* **One rule picks the path.** Worker processes run the sweep when
  there is more than one worker or a per-cell ``timeout`` to enforce;
  otherwise jobs run inline in this process. Both process a job
  identically, so the choice never changes a result. When a worker
  process cannot be started, the jobs not yet dispatched finish
  inline.
* **Deterministic merge.** The caller enumerates jobs in a canonical
  order and each job gets a stable string id. Workers complete in
  whatever order the OS schedules them, but results are merged back
  in canonical job order, so the merged output of any worker count is
  byte-identical to ``nworkers=1`` (the
  simulator itself is deterministic per seed; no wall-clock values are
  allowed into job values).
* **One run per job.** A job's outcome is a function of its payload,
  so a failure would repeat: every job runs once, and its first
  outcome is terminal. Each dispatched job gets one hard deadline,
  ``timeout`` seconds out; a hung job's process is killed when it
  passes, and a job whose process dies ends ``crashed``.
* **Re-run, not resume.** A sweep keeps no record on disk: an
  interrupted sweep is simply run again, which reproduces every cell.
  On Ctrl-C the ``KeyboardInterrupt`` propagates, the pool kills its
  worker processes on the way out, and the CLI exits with the
  documented abnormal code (:data:`repro.faults.EXIT_ABNORMAL`).

Every decision is traced through the ``jobs`` category: ``start`` /
``done`` / ``timeout`` plus ``degrade`` and ``sweep_done``.

The ``worker`` callable must be a **module-level function** whenever
a worker process may run it (it is pickled by reference into worker
processes) taking the job's JSON payload and returning a
JSON-serializable value.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.jobs.model import Job, JobResult, normalize_value
from repro.jobs.pool import PoolSweep


def _run_inline(jobs, worker: Callable, settle: Callable,
                emit: Callable) -> None:
    """Run ``jobs`` in order in this process: no pickling and no
    deadlines."""
    for job in jobs:
        emit("start", job=job.job_id, executor="inline")
        try:
            value = normalize_value(worker(job.payload))
        except Exception as exc:  # noqa: BLE001 — isolate the cell
            settle(job, "error", error=repr(exc))
        else:
            settle(job, "ok", value=value)


def run_jobs(jobs: List[Job], worker: Callable, *, nworkers: int = 1,
             timeout: Optional[float] = None,
             tracer=None) -> List[JobResult]:
    """Run every job once; returns results in canonical (input) order.
    See the module docstring for the execution model."""
    if nworkers < 1:
        raise ValueError("nworkers must be >= 1")
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError("timeout must be a finite number > 0")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate job ids in sweep")

    def emit(event: str, **fields) -> None:
        if tracer is not None:
            tracer.emit("jobs", event, **fields)

    results = {}

    def settle(job: Job, status: str, *, value=None, error=None) -> None:
        """Record a job's terminal result."""
        results[job.job_id] = JobResult(job.job_id, status, value=value,
                                        error=error)
        emit("done", job=job.job_id, status=status)

    queue = jobs
    if nworkers > 1 or timeout is not None:
        queue = PoolSweep(worker, nworkers=nworkers, timeout=timeout,
                          settle=settle, emit=emit).run(queue)
    _run_inline(queue, worker, settle, emit)
    emit("sweep_done", total=len(jobs),
         failed=sum(1 for r in results.values() if not r.ok))
    return [results[job_id] for job_id in ids]
