"""Run/session management for the monitoring service.

A *run* is one submitted simulation job. The registry owns the run
lifecycle — ``queued → running → done|failed`` — plus the on-disk
layout: every run gets a directory ``<data_dir>/runs/<id>/`` holding

* ``trace.jsonl`` — the live ``stream``-mode flight-recorder file the
  SSE endpoint tails while the run executes, and
* ``manifest.json`` — the persisted manifest (normalized config +
  digest, state, timestamps, exit code, verdict summary, final
  ``trace_hash``), rewritten atomically on every state change.

Execution goes through :func:`repro.jobs.run_jobs` with the
module-level :func:`repro.serve.worker.execute_run` worker, so the
service inherits the sweep executor's semantics for free: a submission
with a wall-clock timeout runs exactly once in a private worker
process that the timeout can kill, a run whose process dies ends
``crashed``, and exit codes are single-sourced from
:mod:`repro.faults`. A fixed pool of dispatcher threads drains the
submission queue, so ``queued`` is an honest state under load.

Manifests survive restarts: on startup the registry reloads every
persisted manifest (one that cannot be read, or lacks a field the
endpoints read, is skipped with a ``UserWarning``), and any run that
was still ``queued``/``running`` when the previous server died is
marked ``failed`` (its job is gone; re-submitting the same config is
always safe — runs are deterministic).
"""

from __future__ import annotations

import json
import os
import queue
import re
import threading
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Dict, List, Optional

from repro.faults import EXIT_ABNORMAL
from repro.jobs import Job, run_jobs
from repro.serve.worker import execute_run, parse_submission

#: Run lifecycle states.
RUN_STATES = ("queued", "running", "done", "failed")

_RUN_ID = re.compile(r"^r(\d{5,})$")

#: Manifest fields the endpoints read, at the top level and in
#: ``config``; a recovered manifest missing one is skipped.
_MANIFEST_FIELDS = ("state", "config_digest", "trace_path", "created",
                    "exit_code")
_CONFIG_FIELDS = ("workload", "scheme", "lifeguard", "seed")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunRegistry:
    """Owns run records, their directories, and their execution."""

    def __init__(self, data_dir: str, *, runners: int = 2):
        if runners < 1:
            raise ValueError("runners must be >= 1")
        self.data_dir = os.path.abspath(data_dir)
        self.runs_dir = os.path.join(self.data_dir, "runs")
        os.makedirs(self.runs_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._records: Dict[str, dict] = {}
        self._next_seq = 1
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._recover()
        self._runners = [
            threading.Thread(target=self._drain, name=f"serve-runner-{i}",
                             daemon=True)
            for i in range(runners)
        ]
        for thread in self._runners:
            thread.start()

    # -- public API -----------------------------------------------------------

    def create(self, payload: dict) -> dict:
        """Validate + enqueue a run; returns the new manifest.

        Raises :class:`~repro.common.errors.ConfigurationError` on a bad
        payload (the HTTP layer turns that into a 400).
        """
        spec, timeout = parse_submission(payload)
        with self._lock:
            run_id = f"r{self._next_seq:05d}"
            self._next_seq += 1
            run_dir = os.path.join(self.runs_dir, run_id)
            os.makedirs(run_dir, exist_ok=True)
            record = {
                "id": run_id,
                "state": "queued",
                "config": dict(asdict(spec), timeout=timeout),
                "config_digest": spec.digest(),
                "trace_path": os.path.join(run_dir, "trace.jsonl"),
                "created": _now(),
                "started": None,
                "finished": None,
                "exit_code": None,
                "error": None,
                "result": None,
            }
            self._records[run_id] = record
            self._persist_locked(record)
        self._queue.put(run_id)
        return self.get(run_id)

    def get(self, run_id: str) -> Optional[dict]:
        """A deep-ish copy of one run's manifest (None if unknown)."""
        with self._lock:
            record = self._records.get(run_id)
            return json.loads(json.dumps(record)) if record else None

    def list(self) -> List[dict]:
        """Summaries of every run, oldest first."""
        with self._lock:
            return [
                {"id": record["id"], "state": record["state"],
                 "config_digest": record["config_digest"],
                 "workload": record["config"]["workload"],
                 "scheme": record["config"]["scheme"],
                 "lifeguard": record["config"]["lifeguard"],
                 "seed": record["config"]["seed"],
                 "exit_code": record["exit_code"],
                 "created": record["created"]}
                for run_id, record in sorted(self._records.items())
            ]

    def close(self) -> None:
        """Stop the dispatcher threads (queued runs stay queued on disk
        and are failed over on the next startup)."""
        for _ in self._runners:
            self._queue.put(None)
        for thread in self._runners:
            thread.join(timeout=5)

    # -- execution ------------------------------------------------------------

    def _drain(self) -> None:
        while True:
            run_id = self._queue.get()
            if run_id is None:
                return
            try:
                self._execute(run_id)
            except Exception as exc:  # noqa: BLE001 — runner must survive
                self._finish(run_id, state="failed",
                             error=f"{type(exc).__name__}: {exc}",
                             exit_code=EXIT_ABNORMAL)

    def _execute(self, run_id: str) -> None:
        with self._lock:
            record = self._records[run_id]
            record["state"] = "running"
            record["started"] = _now()
            config = dict(record["config"])
            trace_path = record["trace_path"]
            self._persist_locked(record)
        job = Job(job_id=run_id, payload=dict(config,
                                              trace_path=trace_path))
        results = run_jobs([job], execute_run, nworkers=1,
                           timeout=config["timeout"])
        result = results[0]
        if result.ok:
            value = result.value
            self._finish(run_id, state=("done" if value["exit_code"] == 0
                                        else "failed"),
                         error=value["error"],
                         exit_code=value["exit_code"], result=value)
        else:
            self._finish(run_id, state="failed", error=result.error,
                         exit_code=result.exit_code)

    def _finish(self, run_id: str, *, state: str, error: Optional[str],
                exit_code: int, result: Optional[dict] = None) -> None:
        with self._lock:
            record = self._records[run_id]
            record.update(state=state, error=error, exit_code=exit_code,
                          finished=_now())
            if result is not None:
                record["result"] = result
            self._persist_locked(record)

    # -- persistence ----------------------------------------------------------

    def _persist_locked(self, record: dict) -> None:
        """Atomically rewrite one run's manifest (lock held)."""
        path = os.path.join(self.runs_dir, record["id"], "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def _recover(self) -> None:
        """Reload persisted manifests; fail over interrupted runs."""
        for name in sorted(os.listdir(self.runs_dir)):
            match = _RUN_ID.match(name)
            path = os.path.join(self.runs_dir, name, "manifest.json")
            if not match or not os.path.exists(path):
                continue
            try:
                with open(path, encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                warnings.warn(f"{path}: unreadable run manifest skipped "
                              f"({exc})", UserWarning, stacklevel=2)
                continue
            problem = _manifest_problem(record, name)
            if problem is not None:
                warnings.warn(f"{path}: {problem}; run manifest skipped",
                              UserWarning, stacklevel=2)
                continue
            if record.get("state") in ("queued", "running"):
                record.update(state="failed", finished=_now(),
                              exit_code=EXIT_ABNORMAL,
                              error="interrupted by server restart; "
                                    "re-submit the same config to re-run")
                self._persist_locked(record)
            self._records[name] = record
            self._next_seq = max(self._next_seq, int(match.group(1)) + 1)


def _manifest_problem(record, name: str) -> Optional[str]:
    """Why a parsed manifest cannot be served, or None when it can."""
    if not isinstance(record, dict):
        return "manifest is not a JSON object"
    if record.get("id") != name:
        return f"manifest id {record.get('id')!r} does not match directory"
    config = record.get("config")
    if not isinstance(config, dict):
        return "manifest has no config object"
    missing = [key for key in _MANIFEST_FIELDS if key not in record]
    missing += [f"config.{key}" for key in _CONFIG_FIELDS
                if key not in config]
    if missing:
        return f"incomplete manifest (missing {', '.join(missing)})"
    if record["state"] not in RUN_STATES:
        return f"unknown run state {record['state']!r}"
    return None
