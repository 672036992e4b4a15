"""Parallel sweep executor: deterministic fan-out over worker processes.

:func:`run_jobs` (:mod:`repro.jobs.runner`) is the one entry point. It
holds the execution model (the inline/pool rule, deterministic merge
order, one run per job) and the inline loop; :mod:`repro.jobs.pool`
holds the worker-process path (one private process per slot, hard
deadlines, crashed-worker isolation). A sweep keeps no record on
disk: its cells are deterministic, so an interrupted sweep is run
again.
The sweep surfaces that use it — ``repro.trace.diff`` seed sweeps and
the ``repro.eval.experiments`` figure loops — all expose it as
``--jobs N`` (default 1: serial, bit-identical output).
"""

from repro.jobs.model import (
    EXIT_CRASHED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TIMEOUT,
    Job,
    JobResult,
    cell_values,
    normalize_value,
)
from repro.jobs.runner import run_jobs

__all__ = [
    "EXIT_CRASHED",
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_TIMEOUT",
    "Job",
    "JobResult",
    "cell_values",
    "normalize_value",
    "run_jobs",
]
