"""Shared sweep-executor types: jobs, results, statuses, exit codes.

Split out of :mod:`repro.jobs.runner` so the pool path can speak the
same vocabulary without importing the runner.

A job value is always JSON-normalized (:func:`normalize_value`) before
it is recorded, so the in-process path and the pickled pool path are
indistinguishable — the canonical-order merge of either path is
byte-identical to the serial run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.faults import EXIT_ABNORMAL, EXIT_BUDGET_EXCEEDED

#: Exit-code conventions, mirroring ``python -m repro run`` / the fault
#: harness: 3 is an abnormal death (deadlock there, a killed worker or
#: an interrupted sweep here), 4 is a wall-clock/cycle budget overrun.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CRASHED = EXIT_ABNORMAL
EXIT_TIMEOUT = EXIT_BUDGET_EXCEEDED

STATUS_EXIT = {
    "ok": EXIT_OK,
    "error": EXIT_ERROR,
    "crashed": EXIT_CRASHED,
    "timeout": EXIT_TIMEOUT,
}


def normalize_value(value):
    """JSON round-trip so both result paths (in-process, pickled pool)
    record the exact same object shape."""
    return json.loads(json.dumps(value))


@dataclass(frozen=True)
class Job:
    """One independent sweep cell.

    ``job_id`` must be unique within a sweep and stable across runs
    (it keys the canonical merge and the trace); ``payload`` must be
    pure JSON types — it crosses a process boundary.
    """

    job_id: str
    payload: object = None


@dataclass
class JobResult:
    """Terminal outcome of one job."""

    job_id: str
    status: str  # ok | error | timeout | crashed
    value: object = None
    error: Optional[str] = None
    exit_code: int = field(init=False)

    def __post_init__(self):
        if self.status not in STATUS_EXIT:
            raise ValueError(f"unknown job status {self.status!r}")
        self.exit_code = STATUS_EXIT[self.status]

    @property
    def ok(self) -> bool:
        """True when the job completed successfully."""
        return self.status == "ok"


def cell_values(results, what: str) -> list:
    """The values of a sweep's results, in order; raises
    ``RuntimeError`` naming the first cell that did not end ``ok``."""
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"{what} cell {result.job_id} failed "
                f"({result.status}, exit {result.exit_code}): "
                f"{result.error}")
    return [result.value for result in results]
