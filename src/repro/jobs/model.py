"""Shared sweep-executor types: jobs, results, statuses, exit codes.

Split out of :mod:`repro.jobs.runner` so the pool path, the
worker-side harness and the checkpoint reader can all speak the same
vocabulary without importing the runner.

A job value is always JSON-normalized (:func:`normalize_value`) before
it is recorded, so the in-process path, the pickled pool path and the
JSON-resumed path are indistinguishable — the canonical-order merge of
either path is byte-identical to the serial run.
:func:`result_digest` hashes that canonical form; workers send the
digest alongside the value so the coordinator can detect a corrupted
result (e.g. a worker-level ``corrupt_result`` fault) and retry instead
of silently poisoning the merge, and checkpoint lines carry it so a
damaged line is never resumed.
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

#: Statuses that end a job (after retries are exhausted).
TERMINAL_STATUSES = frozenset(STATUS_EXIT)


def normalize_value(value):
    """JSON round-trip so every result path (in-process, pickled pool,
    JSONL resume) records the exact same object shape."""
    return json.loads(json.dumps(value))


def result_digest(value) -> str:
    """Short hex digest of a JSON-normalized job value.

    Computed by the worker over the canonical encoding and verified by
    the coordinator before the value is merged (and by
    :meth:`JobResult.from_json` before a checkpointed value is resumed);
    a mismatch means the value was corrupted in flight or on disk.
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
    attempts: int = 1
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
            "attempts": self.attempts,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_json(cls, payload: dict, *, resumed: bool = False) -> "JobResult":
        """Rebuild a result from its checkpoint line. Raises
        ``ValueError`` unless the line has a string job id, a terminal
        status and a positive integer attempt count, and its value
        matches its digest (``KeyError``/``TypeError`` on other malformed
        payloads)."""
        if not isinstance(payload["job_id"], str):
            raise ValueError(f"bad job id {payload['job_id']!r}")
        attempts = payload["attempts"]
        if (isinstance(attempts, bool) or not isinstance(attempts, int)
                or attempts < 1):
            raise ValueError(f"bad attempt count {attempts!r}")
        if result_digest(payload["value"]) != payload["digest"]:
            raise ValueError("value does not match its digest")
        return cls(job_id=payload["job_id"], status=payload["status"],
                   value=payload["value"], error=payload.get("error"),
                   attempts=attempts, resumed=resumed)


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
