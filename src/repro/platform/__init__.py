"""Monitoring platform runs.

Three execution schemes, mirroring Figure 6:

* :func:`run_no_monitoring` — the application alone on k cores;
* :func:`run_timesliced_monitoring` — all application threads
  time-sliced onto one core, one sequential lifeguard core (the
  state-of-the-art baseline);
* :func:`run_parallel_monitoring` — ParaLog: k application cores + k
  lifeguard cores with order capture/enforcement, ConflictAlert, and
  parallelized accelerators.

:func:`run_scheme` is the one place a scheme name (:data:`SCHEMES`)
maps to its runner; ``repro run``, ``POST /runs`` and the differential
check all launch through it.
"""

from repro.common.errors import ConfigurationError
from repro.platform.results import RunResult, crash_report, write_crash_report
from repro.platform.baseline import run_no_monitoring
from repro.platform.paralog import run_parallel_monitoring
from repro.platform.timesliced import run_timesliced_monitoring

_MONITORED_RUNNERS = {
    "parallel": run_parallel_monitoring,
    "timesliced": run_timesliced_monitoring,
}

#: The schemes that run a lifeguard.
MONITORED_SCHEMES = tuple(_MONITORED_RUNNERS)

#: Every scheme name ``repro run --scheme`` and ``POST /runs`` accept;
#: ``none`` runs the application unmonitored.
SCHEMES = MONITORED_SCHEMES + ("none",)


def run_scheme(scheme: str, workload, lifeguard_factory, config=None, *,
               no_accel: bool = False, fault_plan=None, watchdog=None,
               max_cycles=None, tracer=None,
               keep_trace: bool = False) -> RunResult:
    """Run ``workload`` under the scheme named ``scheme``.

    ``no_accel`` is the runners' ``accel=False``: IT, IF and M-TLB off.
    ``none`` has no lifeguard, accelerators or monitoring pipeline, so
    it ignores ``lifeguard_factory``, ``no_accel``, ``fault_plan`` and
    ``keep_trace``.
    """
    if scheme == "none":
        return run_no_monitoring(workload, config, watchdog=watchdog,
                                 max_cycles=max_cycles, tracer=tracer)
    runner = _MONITORED_RUNNERS.get(scheme)
    if runner is None:
        raise ConfigurationError(f"unknown scheme {scheme!r}; valid: "
                                 f"{', '.join(SCHEMES)}")
    return runner(workload, lifeguard_factory, config, accel=not no_accel,
                  keep_trace=keep_trace, fault_plan=fault_plan,
                  watchdog=watchdog, max_cycles=max_cycles, tracer=tracer)


__all__ = [
    "MONITORED_SCHEMES",
    "RunResult",
    "SCHEMES",
    "crash_report",
    "run_no_monitoring",
    "run_parallel_monitoring",
    "run_scheme",
    "run_timesliced_monitoring",
    "write_crash_report",
]
