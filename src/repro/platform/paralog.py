"""The PARALLEL MONITORING scheme — ParaLog itself.

k application threads on cores 0..k-1, each shadowed by a lifeguard
thread on core k+tid. Per-thread event logs carry dependence arcs (and,
under TSO, version annotations); lifeguard consumers enforce the order
through the shared progress table and ConflictAlert barriers, and all
lifeguard threads share one global metadata structure.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.capture.conflict_alert import CAHub
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.capture.tso import TsoVersioner
from repro.common.config import MemoryModel, SimulationConfig
from repro.cpu.cores import MonitoringHooks
from repro.cpu.lifeguard_core import LifeguardCore
from repro.enforce.progress import ProgressTable
from repro.enforce.versions import VersionStore
from repro.platform._wiring import (
    DEFAULT_CONTAINMENT,
    Machine,
    active_faults,
    add_monitored_stats,
    build_app_core,
    build_lifeguard,
    build_thread_programs,
    check_drained,
    collect_core_stats,
    diagnostics_provider,
    run_result,
)
from repro.platform.results import RunResult


def run_parallel_monitoring(
    workload,
    lifeguard_factory: Callable,
    config: SimulationConfig = None,
    accel: bool = True,
    keep_trace: bool = False,
    fault_plan=None,
    watchdog=None,
    max_cycles: Optional[int] = None,
    tracer=None,
) -> RunResult:
    """Run a workload under ParaLog parallel monitoring.

    ``lifeguard_factory`` is called as ``factory(costs=..., heap_range=...)``
    — a lifeguard class works directly. ``accel`` switches IT, IF and
    M-TLB on or off together (the two settings of Figure 8); each one
    runs only where the lifeguard uses it. The application always waits
    for its lifeguard at :data:`DEFAULT_CONTAINMENT` system calls.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) arms deterministic
    fault injection at the capture/enforce/lifeguard hook points; a plan
    with no faults is equivalent to passing None (bit-for-bit identical
    runs). ``watchdog`` enables the engine's livelock detector and
    ``max_cycles`` bounds simulated time via
    :class:`~repro.common.errors.SimulationTimeout`. ``tracer`` (a
    :class:`~repro.trace.TraceWriter`) attaches the flight recorder to
    every instrumented component; like ``fault_plan``, None keeps all
    hot paths untouched.
    """
    nthreads = workload.nthreads
    config = config or SimulationConfig.for_threads(nthreads)
    faults = active_faults(fault_plan)

    machine = Machine(config, num_cores=2 * nthreads, watchdog=watchdog,
                      tracer=tracer)
    engine = machine.engine
    tids = list(range(nthreads))

    lifeguard = build_lifeguard(lifeguard_factory, config)

    progress = ProgressTable(engine, tids, faults=faults, tracer=tracer)
    ca_hub = CAHub(engine, faults=faults, tracer=tracer)
    version_store = versioner = None
    if config.memory_model is MemoryModel.TSO:
        version_store = VersionStore(engine)
        versioner = TsoVersioner(config.line_bytes)
        machine.memsys.war_filter = versioner

    trace = [] if keep_trace else None
    core_to_tid = {tid: tid for tid in tids}  # app cores only produce arcs
    current_rids = {}
    clock = itertools.count(1)  # the run's commit clock

    store_buffers = {}
    hooks = MonitoringHooks(
        ca_hub=ca_hub,
        ca_subscriptions=lifeguard.ca_subscriptions,
        progress_table=progress,
        containment_kinds=DEFAULT_CONTAINMENT,
        store_buffers=store_buffers,
    )

    programs = build_thread_programs(workload, machine)

    logs, captures, app_cores, lifeguard_cores = [], [], [], []
    for tid in tids:
        log = LogBuffer(engine, config.log_config, name=f"log{tid}",
                        faults=faults)
        capture = OrderCapture(tid, config, log, core_to_tid, current_rids,
                               clock, trace=trace, faults=faults,
                               tracer=tracer)
        ca_hub.register(tid, capture)
        logs.append(log)
        captures.append(capture)

        app_core, store_buffer, drain_actor = build_app_core(
            machine, tid, programs[tid], capture, hooks, log)
        if store_buffer is not None:
            store_buffers[tid] = store_buffer
            versioner.register(tid, capture)
        app_cores.append(app_core)

        lifeguard_core = LifeguardCore(
            engine, f"lifeguard{tid}", core_id=nthreads + tid, tid=tid,
            log=log, lifeguard=lifeguard, memsys=machine.memsys, config=config,
            progress_table=progress, ca_hub=ca_hub, version_store=version_store,
            accel=accel, faults=faults, tracer=tracer,
        )
        lifeguard_cores.append(lifeguard_core)
        ca_hub.register_lifeguard_actor(tid, lifeguard_core.name)
        # Label conditions with their notifiers' names so wait-for-graph
        # diagnostics can walk blocked -> condition -> blocker edges.
        log.not_full.owners = [lifeguard_core.name]
        log.not_empty.owners = ([app_core.name] if drain_actor is None
                                else [app_core.name, drain_actor.name])
        progress.condition(tid).owners = [lifeguard_core.name]

    engine.diagnostics_provider = diagnostics_provider(
        lifeguard_cores, progress, logs, faults)

    for core in app_cores:
        core.start()
    for core in lifeguard_cores:
        core.start()

    engine.run(max_cycles=max_cycles)
    check_drained(logs)

    stats = collect_core_stats(
        machine.memsys, machine.os, captures=captures, logs=logs,
        lifeguard_cores=lifeguard_cores, ca_hub=ca_hub,
    )
    if version_store is not None:
        stats["versions_produced"] = version_store.produced
        stats["versions_consumed"] = version_store.consumed
    stats["progress_publishes"] = progress.publishes
    add_monitored_stats(stats, machine, lifeguard, faults, logs)
    return run_result("parallel", workload, app_cores, stats,
                      lifeguard=lifeguard, lifeguard_cores=lifeguard_cores,
                      trace=trace)
