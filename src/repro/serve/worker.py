"""Run-config validation and the server's job worker.

``POST /runs`` payloads use the exact vocabulary of ``python -m repro
run`` (workload/scheme/lifeguard/seed/threads/scale/...), and
:func:`normalize_run_config` validates them with the same machinery the
CLI uses — :class:`~repro.common.config.ScalePreset` /
``MemoryModel`` / ``CaptureMode`` enums, the
:data:`~repro.workloads.WORKLOADS` and
:data:`~repro.lifeguards.LIFEGUARDS` registries,
:func:`~repro.trace.parse_trace_filter` — so the service can never
accept a run the CLI would reject.

:func:`execute_run` is the **module-level** worker handed to
:func:`repro.jobs.run_jobs` (it must be pickleable by reference into a
pool worker): it runs one monitored simulation with a ``stream``-mode
flight recorder writing to the run directory — the file the SSE tailer
follows — and returns the manifest payload: exit code (the
:mod:`repro.faults` conventions: 0 ok, 3 abnormal, 4 budget exceeded),
verdict summary, and the final trace hash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from repro.common.config import CaptureMode, MemoryModel, ScalePreset, \
    SimulationConfig
from repro.common.errors import ConfigurationError, SimulationError, \
    SimulationTimeout
from repro.cpu.engine import Watchdog
from repro.faults import EXIT_ABNORMAL, EXIT_BUDGET_EXCEEDED
from repro.lifeguards import LIFEGUARDS
from repro.platform import (
    AcceleratorConfig,
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.serve.scenarios import SCHEMES
from repro.trace import TraceWriter, parse_trace_filter, read_trace, \
    trace_hash
from repro.trace.diff import verdict_projection
from repro.workloads import WORKLOADS, build_workload

#: Submission fields that shape the *simulation* (and therefore the
#: trace bytes). Everything else — executor choice, job timeout — is
#: service plumbing and stays out of the config digest.
SIM_FIELDS = ("workload", "scheme", "lifeguard", "seed", "threads",
              "scale", "memory_model", "capture", "no_accel",
              "max_cycles", "watchdog", "trace_filter")

#: Service-level fields: how the job is executed, not what it computes.
JOB_FIELDS = ("executor", "timeout", "retries")

_DEFAULTS: Dict[str, object] = {
    "scheme": "parallel",
    "lifeguard": "taintcheck",
    "seed": 1,
    "threads": 2,
    "scale": "tiny",
    "memory_model": "sc",
    "capture": "per_block",
    "no_accel": False,
    "max_cycles": None,
    "watchdog": None,
    "trace_filter": "all",
    "executor": "auto",
    "timeout": None,
    "retries": 0,
}


def _require_int(config: dict, key: str, *, minimum: int,
                 optional: bool = False) -> None:
    value = config[key]
    if optional and value is None:
        return
    # bool is an int subclass but `"seed": true` is a client bug, not 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key!r} must be an integer, "
                                 f"got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{key!r} must be >= {minimum}, "
                                 f"got {value}")


def normalize_run_config(payload: dict) -> dict:
    """Validate a ``POST /runs`` payload into a canonical run config.

    Fills defaults, rejects unknown keys, and re-uses the CLI's own
    parsers/registries for every field. Raises
    :class:`~repro.common.errors.ConfigurationError` with a
    client-presentable message on any problem.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("run config must be a JSON object")
    unknown = sorted(set(payload) - set(SIM_FIELDS) - set(JOB_FIELDS))
    if unknown:
        raise ConfigurationError(f"unknown run config fields {unknown}")
    if "workload" not in payload:
        raise ConfigurationError("run config needs a 'workload'")
    config = dict(_DEFAULTS)
    config.update(payload)
    if config["workload"] not in WORKLOADS:
        raise ConfigurationError(
            f"unknown workload {config['workload']!r}; "
            f"see GET /scenarios")
    if config["scheme"] not in SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {config['scheme']!r}; valid: "
            f"{', '.join(SCHEMES)}")
    if config["scheme"] == "none":
        config["lifeguard"] = None
    elif config["lifeguard"] not in LIFEGUARDS:
        raise ConfigurationError(
            f"unknown lifeguard {config['lifeguard']!r}; valid: "
            f"{', '.join(sorted(LIFEGUARDS))}")
    for key, enum_cls in (("scale", ScalePreset),
                          ("memory_model", MemoryModel),
                          ("capture", CaptureMode)):
        try:
            enum_cls(config[key])
        except ValueError:
            raise ConfigurationError(
                f"unknown {key} {config[key]!r}; valid: "
                f"{', '.join(member.value for member in enum_cls)}") \
                from None
    _require_int(config, "seed", minimum=0)
    _require_int(config, "threads", minimum=1)
    _require_int(config, "max_cycles", minimum=1, optional=True)
    _require_int(config, "watchdog", minimum=1, optional=True)
    _require_int(config, "retries", minimum=0)
    if not isinstance(config["no_accel"], bool):
        raise ConfigurationError("'no_accel' must be a boolean")
    parse_trace_filter(config["trace_filter"])  # raises on bad categories
    if config["executor"] not in ("auto", "inline", "pool"):
        raise ConfigurationError(
            f"unknown executor {config['executor']!r}; valid: "
            f"auto, inline, pool")
    timeout = config["timeout"]
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ConfigurationError(f"'timeout' must be a number, "
                                     f"got {timeout!r}")
        if timeout <= 0:
            raise ConfigurationError("'timeout' must be > 0")
    return config


def run_digest(config: dict) -> str:
    """Short hex digest identifying the *simulation* a config describes.

    Two submissions that must produce byte-identical traces (same
    :data:`SIM_FIELDS`) share a digest, regardless of how the service
    chooses to execute them.
    """
    canonical = {key: config.get(key) for key in SIM_FIELDS}
    encoded = json.dumps(canonical, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


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
    """Job worker: run one monitored simulation, streaming its trace.

    ``payload`` is a normalized run config plus ``trace_path`` (assigned
    by the registry). Returns the manifest result fields; simulation
    failures (deadlock, livelock, cycle budget) are *reported*, not
    raised — the job itself only fails on harness-level crashes, which
    :mod:`repro.jobs` turns into ``crashed``/``timeout`` statuses.
    """
    trace_path = payload["trace_path"]
    config = SimulationConfig.for_threads(
        payload["threads"],
        memory_model=MemoryModel(payload["memory_model"]),
        capture_mode=CaptureMode(payload["capture"]),
    )
    workload = build_workload(payload["workload"], payload["threads"],
                              ScalePreset(payload["scale"]),
                              payload["seed"])
    watchdog = Watchdog(payload["watchdog"]) if payload["watchdog"] else None
    tracer = TraceWriter.to_path(
        trace_path, categories=parse_trace_filter(payload["trace_filter"]))
    result = None
    error = None
    exit_code = 0
    try:
        if payload["scheme"] == "none":
            result = run_no_monitoring(
                workload, config, watchdog=watchdog,
                max_cycles=payload["max_cycles"], tracer=tracer)
        elif payload["scheme"] == "timesliced":
            result = run_timesliced_monitoring(
                workload, LIFEGUARDS[payload["lifeguard"]], config,
                watchdog=watchdog, max_cycles=payload["max_cycles"],
                tracer=tracer)
        else:
            accel = (AcceleratorConfig.all_off() if payload["no_accel"]
                     else AcceleratorConfig.all_on())
            result = run_parallel_monitoring(
                workload, LIFEGUARDS[payload["lifeguard"]], config,
                accel=accel, watchdog=watchdog,
                max_cycles=payload["max_cycles"], tracer=tracer)
    except SimulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
        exit_code = (EXIT_BUDGET_EXCEEDED
                     if isinstance(exc, SimulationTimeout)
                     else EXIT_ABNORMAL)
    finally:
        tracer.close()
    events = read_trace(trace_path)
    out: Dict[str, object] = {
        "exit_code": exit_code,
        "error": error,
        "trace_hash": trace_hash(events),
        "trace_events": len(events),
    }
    if result is not None:
        out.update({
            "summary": result.summary(),
            "cycles": result.total_cycles,
            "instructions": result.instructions,
            "verdicts": verdict_summary(result.violations,
                                        payload["lifeguard"]),
        })
    return out
