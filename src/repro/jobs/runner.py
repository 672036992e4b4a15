"""The parallel sweep executor facade.

Every sweep in the repo — differential seed sweeps, replay fan-outs,
the figure regeneration loops — is a list of *independent*
cells (seed × scheme × lifeguard, benchmark × thread count, ...).
:class:`JobRunner` runs such a list on one of two backends
(:mod:`repro.jobs.executors`) while keeping the output
*indistinguishable from the serial run*:

* **One rule picks the backend.** The process pool runs the sweep when
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
  times, after a deterministic capped exponential backoff
  (:mod:`repro.jobs.backoff`).
* **Checkpoint/resume.** Every terminal result is appended (and
  flushed) to a JSONL checkpoint, so a dead coordinator loses only its
  in-flight cells, which are deterministic and safe to recompute. An
  interrupted sweep restarted with ``resume=True`` skips exactly the
  recovered job ids. A ``KeyboardInterrupt`` mid-sweep fsyncs the
  checkpoint before propagating, and the CLI exits with the documented
  abnormal code (:data:`repro.faults.EXIT_ABNORMAL`).

The ``worker`` callable must be a **module-level function** whenever
the pool may run it (it is pickled by reference into worker processes)
taking the job's JSON payload and returning a JSON-serializable value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.faults import Fault
from repro.jobs.backoff import BackoffPolicy
from repro.jobs.checkpoint import CheckpointWriter, load_checkpoint
from repro.jobs.model import (  # noqa: F401 — re-exported for compat
    EXIT_CRASHED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    Job,
    JobResult,
    TERMINAL_STATUSES,
)
from repro.jobs.scheduler import JobScheduler


class JobRunner:
    """Runs a canonical job list; see the module docstring."""

    def __init__(self, worker: Callable, *, nworkers: int = 1,
                 timeout: Optional[float] = None, retries: int = 1,
                 checkpoint_path: Optional[str] = None, resume: bool = False,
                 backoff: Optional[BackoffPolicy] = None,
                 worker_faults: Sequence[Fault] = (), fault_seed: int = 0,
                 tracer=None):
        if nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be > 0")
        if resume and not checkpoint_path:
            raise ValueError("resume=True requires a checkpoint_path")
        self.worker = worker
        self.nworkers = nworkers
        self.timeout = timeout
        self.retries = retries
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.backoff = backoff
        self.worker_faults = tuple(worker_faults or ())
        self.fault_seed = fault_seed
        self.tracer = tracer

    @property
    def use_pool(self) -> bool:
        """The backend rule: only the pool can run jobs in parallel,
        enforce a wall-clock timeout or arm worker faults."""
        return (self.nworkers > 1 or self.timeout is not None
                or bool(self.worker_faults))

    # -- tracing ---------------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit("jobs", event, **fields)

    # -- resume ----------------------------------------------------------------

    def _recovered(self) -> Dict[str, JobResult]:
        """The checkpointed terminal results (any status) to skip."""
        if not self.resume:
            return {}
        results = {
            job_id: JobResult.from_json(payload, resumed=True)
            for job_id, payload in load_checkpoint(
                self.checkpoint_path, tracer=self.tracer).items()}
        self._emit("resume", skipped=len(results))
        return results

    # -- public API ------------------------------------------------------------

    def run(self, jobs: List[Job]) -> List[JobResult]:
        """Run every job; returns results in canonical (input) order."""
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in sweep")

        results = self._recovered()
        todo = [job for job in jobs if job.job_id not in results]
        checkpoint = (CheckpointWriter(self.checkpoint_path)
                      if self.checkpoint_path else None)

        def record(result: JobResult) -> None:
            results[result.job_id] = result
            if checkpoint is not None:
                checkpoint.append(result.to_json())
            self._emit("done", job=result.job_id, status=result.status,
                       attempts=result.attempts)

        scheduler = JobScheduler(
            self.worker, use_pool=self.use_pool, nworkers=self.nworkers,
            record=record, timeout=self.timeout, retries=self.retries,
            backoff=self.backoff, worker_faults=self.worker_faults,
            fault_seed=self.fault_seed, tracer=self.tracer)
        try:
            scheduler.run(todo)
        except KeyboardInterrupt:
            # Satellite guarantee: an interrupt never loses a completed
            # result — sync the checkpoint before propagating so the CLI
            # can exit with the documented abnormal code.
            if checkpoint is not None:
                checkpoint.sync()
            self._emit("interrupted", completed=len(results),
                       remaining=len(jobs) - len(results))
            raise
        finally:
            if checkpoint is not None:
                checkpoint.close()
        self._emit("sweep_done", total=len(jobs),
                   failed=sum(1 for r in results.values() if not r.ok))
        return [results[job_id] for job_id in ids]


def run_jobs(jobs: List[Job], worker: Callable, *, nworkers: int = 1,
             timeout: Optional[float] = None, retries: int = 1,
             checkpoint_path: Optional[str] = None, resume: bool = False,
             backoff: Optional[BackoffPolicy] = None,
             worker_faults: Sequence[Fault] = (), fault_seed: int = 0,
             tracer=None) -> List[JobResult]:
    """Convenience wrapper: build a :class:`JobRunner` and run it."""
    runner = JobRunner(worker, nworkers=nworkers, timeout=timeout,
                       retries=retries, checkpoint_path=checkpoint_path,
                       resume=resume, backoff=backoff,
                       worker_faults=worker_faults, fault_seed=fault_seed,
                       tracer=tracer)
    return runner.run(jobs)
