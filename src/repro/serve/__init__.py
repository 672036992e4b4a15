"""Monitoring as a service: the long-lived job server (`repro serve`).

ParaLog's core promise is *online* monitoring — verdicts while the
application runs, not after — but every other entry point in this repo
is a batch CLI that reports once the simulation exits. This package is
the missing front door: a long-lived stdlib-``asyncio`` HTTP service
that accepts simulation/monitoring jobs over REST, executes them
through :func:`repro.jobs.run_jobs` (inheriting timeouts, retries
and crashed-worker quarantine), and streams lifeguard verdicts and
flight-recorder events *live* over Server-Sent Events by tailing each
run's ``stream``-mode JSONL trace with :class:`repro.trace.TraceTail`.

Endpoints (all JSON unless noted):

* ``POST /runs`` — submit a run (``workload``/``scheme``/``lifeguard``/
  ``seed``/...; the same vocabulary as ``python -m repro run``);
  returns ``201`` with the new run's manifest.
* ``GET /runs`` — list all runs with states
  (``queued|running|done|failed``).
* ``GET /runs/{id}`` — one run's manifest (config + digest, state,
  trace path, exit code, verdict summary, final ``trace_hash``).
* ``GET /runs/{id}/events[?filter=engine,jobs]`` — Server-Sent Events:
  every trace line as it lands on disk (``event: trace``), state
  transitions (``event: state``), and a final ``event: end`` frame
  carrying the verdict summary and trace hash. With no filter the
  streamed ``trace`` data lines are byte-identical to the on-disk
  JSONL trace.
* ``GET /scenarios`` — the scenario library: every runnable
  workload × scheme × lifeguard combination.
* ``GET /healthz`` — liveness.

Nothing beyond the standard library is required; the server is plain
``asyncio.start_server`` HTTP/1.1 (see :mod:`repro.serve.http`).
"""

from repro.serve.app import ServeApp, main, start_in_thread
from repro.serve.registry import RUN_STATES, RunRegistry
from repro.serve.scenarios import SCHEMES, scenario_library
from repro.serve.worker import execute_run, normalize_run_config, run_digest

__all__ = [
    "RUN_STATES",
    "RunRegistry",
    "SCHEMES",
    "ServeApp",
    "execute_run",
    "main",
    "normalize_run_config",
    "run_digest",
    "scenario_library",
    "start_in_thread",
]
