"""Parallel sweep executor: deterministic fan-out over worker processes.

:func:`run_jobs` (:mod:`repro.jobs.runner`) is the one entry point. It
holds the execution model (the inline/pool rule, deterministic merge
order, bounded retries with deterministic backoff) and the inline
loop; :mod:`repro.jobs.pool` holds the process-pool path (hard
deadlines, quarantine, result digests), :mod:`repro.jobs.workers` the
code that runs inside pool workers and :mod:`repro.jobs.checkpoint`
the JSONL checkpoint/resume format. The sweep surfaces that use it —
``repro.trace.diff`` seed sweeps, ``repro.replay`` fan-outs and the
``repro.eval.experiments`` figure loops — all expose it as
``--jobs N`` (default 1: serial, bit-identical output).
"""

from repro.jobs.checkpoint import CheckpointWriter, load_checkpoint
from repro.jobs.model import (
    EXIT_CRASHED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    Job,
    JobResult,
    TERMINAL_STATUSES,
    cell_values,
    normalize_value,
    result_digest,
)
from repro.jobs.runner import retry_delay, run_jobs

__all__ = [
    "CheckpointWriter",
    "EXIT_CRASHED",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_TIMEOUT",
    "Job",
    "JobResult",
    "TERMINAL_STATUSES",
    "cell_values",
    "load_checkpoint",
    "normalize_value",
    "result_digest",
    "retry_delay",
    "run_jobs",
]
