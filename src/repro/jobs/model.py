"""Shared sweep-executor types: jobs, results, statuses, exit codes.

Split out of :mod:`repro.jobs.runner` so the pool path and the
checkpoint reader can speak the same vocabulary without importing the
runner.

A job value is always JSON-normalized (:func:`normalize_value`) before
it is recorded, so the in-process path, the pickled pool path and the
JSON-resumed path are indistinguishable — the canonical-order merge of
either path is byte-identical to the serial run.
:func:`result_digest` hashes that canonical form; checkpoint lines
carry it so a line damaged on disk is never resumed.
"""

from __future__ import annotations

import hashlib
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

#: The statuses a job can end with; each job runs once.
TERMINAL_STATUSES = frozenset(STATUS_EXIT)


def normalize_value(value):
    """JSON round-trip so every result path (in-process, pickled pool,
    JSONL resume) records the exact same object shape."""
    return json.loads(json.dumps(value))


def result_digest(value) -> str:
    """Short hex digest of a JSON-normalized job value.

    Written into every checkpoint line and verified by
    :meth:`JobResult.from_json` before a checkpointed value is resumed;
    a mismatch means the line was damaged on disk.
    """
    encoded = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Job:
    """One independent sweep cell.

    ``job_id`` must be unique and stable across runs (it keys the
    checkpoint); ``payload`` must be pure JSON types — it crosses a
    process boundary and, on resume, a JSON round-trip.
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
    resumed: bool = False
    exit_code: int = field(init=False)

    def __post_init__(self):
        if self.status not in STATUS_EXIT:
            raise ValueError(f"unknown job status {self.status!r}")
        self.exit_code = STATUS_EXIT[self.status]

    @property
    def ok(self) -> bool:
        """True when the job completed successfully."""
        return self.status == "ok"

    def to_json(self) -> dict:
        """The checkpoint line payload for this result."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "value": self.value,
            "digest": result_digest(self.value),
            "error": self.error,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_json(cls, payload: dict, *, resumed: bool = False) -> "JobResult":
        """Rebuild a result from its checkpoint line. Raises
        ``ValueError`` unless the line has a string job id and a terminal
        status, and its value matches its digest (``KeyError``/
        ``TypeError`` on other malformed payloads). Other fields, such as
        the ``attempts`` count older lines carry, are ignored."""
        if not isinstance(payload["job_id"], str):
            raise ValueError(f"bad job id {payload['job_id']!r}")
        if result_digest(payload["value"]) != payload["digest"]:
            raise ValueError("value does not match its digest")
        return cls(job_id=payload["job_id"], status=payload["status"],
                   value=payload["value"], error=payload.get("error"),
                   resumed=resumed)


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
