"""Parallel sweep executor: deterministic fan-out over worker processes.

See :mod:`repro.jobs.runner` for the execution model (the inline/pool
rule, deterministic merge order, hard deadlines, bounded retries with
deterministic backoff), :mod:`repro.jobs.executors` for the two
backends and :mod:`repro.jobs.checkpoint` for the JSONL
checkpoint/resume format. The sweep surfaces that use it —
``repro.trace.diff`` seed sweeps, ``repro.replay`` fan-outs and the
``repro.eval.experiments`` figure loops — all expose it as
``--jobs N`` (default 1: serial, bit-identical output).
"""

from repro.jobs.backoff import BackoffPolicy
from repro.jobs.checkpoint import CheckpointWriter, load_checkpoint
from repro.jobs.executors import Executor, ExecutorError, ExecutorEvent
from repro.jobs.model import (
    EXIT_CRASHED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    Job,
    JobResult,
    TERMINAL_STATUSES,
    normalize_value,
    result_digest,
)
from repro.jobs.runner import JobRunner, run_jobs

__all__ = [
    "BackoffPolicy",
    "CheckpointWriter",
    "EXIT_CRASHED",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_TIMEOUT",
    "Executor",
    "ExecutorError",
    "ExecutorEvent",
    "Job",
    "JobResult",
    "JobRunner",
    "TERMINAL_STATUSES",
    "load_checkpoint",
    "normalize_value",
    "result_digest",
    "run_jobs",
]
