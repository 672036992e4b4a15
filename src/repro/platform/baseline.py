"""The NO MONITORING scheme: the application alone on k cores."""

from __future__ import annotations

from repro.common.config import MemoryModel, SimulationConfig
from repro.cpu.cores import (
    AppCore,
    MonitoringHooks,
    NullCapture,
    StoreBufferDrainActor,
    TsoStoreBuffer,
)
from repro.platform._wiring import (
    Machine,
    build_thread_programs,
    collect_core_stats,
    collect_perf_stats,
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
        capture = NullCapture(tid)
        store_buffer = None
        if config.memory_model is MemoryModel.TSO:
            store_buffer = TsoStoreBuffer(
                machine.engine, config.store_buffer_entries, f"app{tid}")
        core = AppCore(
            machine.engine, f"app{tid}", core_id=tid, tid=tid,
            program=program, capture=capture, memsys=machine.memsys,
            memory=machine.memory, config=config, hooks=hooks,
            log=None, store_buffer=store_buffer,
        )
        if store_buffer is not None:
            StoreBufferDrainActor(
                machine.engine, f"app{tid}.drain", core_id=tid,
                buffer=store_buffer, capture=capture, memsys=machine.memsys,
                memory=machine.memory, log=None,
                drain_delay=config.tso_drain_delay,
            ).start()
        cores.append(core)
        core.start()

    machine.engine.run(max_cycles=max_cycles)
    total = max(core.finish_time for core in cores)
    stats = collect_core_stats(machine.memsys, machine.os)
    stats["perf"] = collect_perf_stats(machine)
    return RunResult(
        scheme="no_monitoring",
        workload=workload.name,
        lifeguard=None,
        app_threads=workload.nthreads,
        total_cycles=total,
        app_buckets={core.name: core.buckets.as_dict() for core in cores},
        instructions=sum(core.instructions_retired for core in cores),
        stats=stats,
    )
