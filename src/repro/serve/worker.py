"""Submission parsing and the server's job worker.

A ``POST /runs`` payload is a :class:`~repro.platform.spec.RunSpec`
(the vocabulary, defaults and checks of ``python -m repro run``) plus
the job ``timeout``. :func:`execute_run` is the **module-level** worker
handed to :func:`repro.jobs.run_jobs` (pickleable by reference into a
worker process): it runs the spec with a ``stream``-mode trace in the
run directory, the file the SSE tailer follows, and returns the
manifest's result fields.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.platform.spec import SIM_FIELDS, RunSpec
from repro.trace import open_trace, read_trace, trace_hash
from repro.trace.diff import verdict_projection


def parse_submission(payload) -> Tuple[RunSpec, Optional[float]]:
    """Split a ``POST /runs`` payload into its normalized spec and its
    job ``timeout`` (seconds or None; how the job runs, so it is not in
    the digest). Raises ``ConfigurationError`` with a client message."""
    if not isinstance(payload, dict):
        raise ConfigurationError("run config must be a JSON object")
    timeout = payload.get("timeout")
    spec = RunSpec.from_payload({key: value for key, value in payload.items()
                                 if key != "timeout"})
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ConfigurationError(f"'timeout' must be a number, "
                                     f"got {timeout!r}")
        if not 0 < timeout < math.inf:
            raise ConfigurationError(
                f"'timeout' must be a finite number > 0, got {timeout!r}")
    return spec, timeout


def verdict_summary(violations, lifeguard: Optional[str]) -> dict:
    """The manifest/SSE view of a run's violation list."""
    kinds: Dict[str, int] = {}
    for violation in violations:
        kinds[violation.kind] = kinds.get(violation.kind, 0) + 1
    summary = {
        "count": len(violations),
        "kinds": kinds,
        "violations": [[v.kind, v.tid, v.rid, v.detail]
                       for v in violations],
    }
    if lifeguard is not None:
        summary["projection"] = [list(item) for item in
                                 verdict_projection(violations, lifeguard)]
    return summary


def execute_run(payload: dict) -> dict:
    """Job worker: run a manifest's ``config`` (plus its ``trace_path``)
    and return the result fields. A simulation failure is *reported*;
    only a harness crash fails the job (:mod:`repro.jobs` statuses)."""
    trace_path = payload["trace_path"]
    spec = RunSpec(**{name: payload[name] for name in SIM_FIELDS})
    tracer = open_trace(trace_path, spec.trace_filter)
    try:
        result, exc, exit_code = spec.execute(tracer=tracer)
    finally:
        tracer.close()
    events = read_trace(trace_path)
    out: Dict[str, object] = {
        "exit_code": exit_code,
        "error": None if exc is None else f"{type(exc).__name__}: {exc}",
        "trace_hash": trace_hash(events),
        "trace_events": len(events),
    }
    if result is not None:
        out.update({
            "summary": result.summary(),
            "cycles": result.total_cycles,
            "instructions": result.instructions,
            "verdicts": verdict_summary(result.violations, spec.lifeguard),
        })
    return out
