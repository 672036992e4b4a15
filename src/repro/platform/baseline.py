"""The NO MONITORING scheme: the application alone on k cores."""

from __future__ import annotations

from repro.common.config import SimulationConfig
from repro.cpu.cores import MonitoringHooks, NullCapture
from repro.platform._wiring import (
    Machine,
    build_app_core,
    build_thread_programs,
    collect_core_stats,
    collect_perf_stats,
    run_result,
)
from repro.platform.results import RunResult


def run_no_monitoring(workload, config: SimulationConfig = None,
                      watchdog=None, max_cycles=None,
                      tracer=None) -> RunResult:
    """Run a workload without any monitoring; the Figure 6 baseline.

    ``watchdog``/``max_cycles``/``tracer`` give the unmonitored run the
    same bounded-time and observability surface as the monitored schemes
    (only ``engine`` category events fire — there is no capture,
    enforcement or lifeguard hardware to trace).
    """
    config = config or SimulationConfig.for_threads(workload.nthreads)
    machine = Machine(config, num_cores=workload.nthreads, watchdog=watchdog,
                      tracer=tracer)
    programs = build_thread_programs(workload, machine)
    hooks = MonitoringHooks()  # no CA, no containment, no progress table

    cores = []
    for tid, program in enumerate(programs):
        core, _, _ = build_app_core(machine, tid, program, NullCapture(tid),
                                    hooks)
        cores.append(core)
        core.start()

    machine.engine.run(max_cycles=max_cycles)
    stats = collect_core_stats(machine.memsys, machine.os)
    stats["perf"] = collect_perf_stats(machine)
    return run_result("no_monitoring", workload, cores, stats)
