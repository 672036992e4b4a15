"""The PARALLEL MONITORING scheme — ParaLog itself.

k application threads on cores 0..k-1, each shadowed by a lifeguard
thread on core k+tid. Per-thread event logs carry dependence arcs (and,
under TSO, version annotations); lifeguard consumers enforce the order
through the shared progress table and ConflictAlert barriers, and all
lifeguard threads share one global metadata structure.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional

from repro.capture.conflict_alert import CAHub
from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.capture.tso import TsoVersioner
from repro.common.config import MemoryModel, SimulationConfig
from repro.common.errors import SimulationError
from repro.cpu.cores import (
    AppCore,
    MonitoringHooks,
    StoreBufferDrainActor,
    TsoStoreBuffer,
)
from repro.cpu.lifeguard_core import LifeguardCore
from repro.cpu.os_model import AddressLayout
from repro.enforce.progress import ProgressTable
from repro.enforce.range_table import SyscallRangeTable
from repro.enforce.versions import VersionStore
from repro.isa.instructions import HLEventKind
from repro.platform._wiring import (
    Machine,
    build_thread_programs,
    collect_core_stats,
    collect_perf_stats,
)
from repro.platform.monitor_config import AcceleratorConfig
from repro.platform.results import RunResult

#: System calls that stall the application until its lifeguard catches up
#: (damage containment at the system-call boundary, Section 3).
DEFAULT_CONTAINMENT = frozenset({HLEventKind.SYSCALL_WRITE})


def run_parallel_monitoring(
    workload,
    lifeguard_factory: Callable,
    config: SimulationConfig = None,
    accel: AcceleratorConfig = None,
    containment_kinds: Optional[FrozenSet] = None,
    keep_trace: bool = False,
    fault_plan=None,
    watchdog=None,
    max_cycles: Optional[int] = None,
    tracer=None,
) -> RunResult:
    """Run a workload under ParaLog parallel monitoring.

    ``lifeguard_factory`` is called as ``factory(costs=..., heap_range=...)``
    — a lifeguard class works directly.

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
    accel = accel or AcceleratorConfig.all_on()
    if containment_kinds is None:
        containment_kinds = DEFAULT_CONTAINMENT
    # A disabled plan must leave every hot path untouched — hooks guard
    # on `faults is not None`, so normalize "no faults" to None here.
    faults = fault_plan if (fault_plan is not None and fault_plan.enabled) else None

    machine = Machine(config, num_cores=2 * nthreads, watchdog=watchdog,
                      tracer=tracer)
    engine = machine.engine
    tids = list(range(nthreads))

    lifeguard = lifeguard_factory(
        costs=config.lifeguard_costs, heap_range=AddressLayout.heap_range()
    )
    range_table = SyscallRangeTable()
    lifeguard.range_table = range_table

    progress = ProgressTable(engine, tids, faults=faults, tracer=tracer)
    ca_hub = CAHub(engine, faults=faults, tracer=tracer)
    version_store = VersionStore(engine) if config.memory_model is MemoryModel.TSO else None
    versioner = (TsoVersioner(config.line_bytes)
                 if config.memory_model is MemoryModel.TSO else None)
    if versioner is not None:
        machine.memsys.war_filter = versioner

    trace = [] if keep_trace else None
    core_to_tid = {tid: tid for tid in tids}  # app cores only produce arcs
    current_rids = {}

    store_buffers = {}
    hooks = MonitoringHooks(
        ca_hub=ca_hub,
        ca_subscriptions=lifeguard.ca_subscriptions,
        progress_table=progress,
        containment_kinds=containment_kinds,
        store_buffers=store_buffers,
    )

    # The Section 7 touch-ablation replaces CAs with plain arcs, which
    # only order correctly if the consumer enforces instruction arcs.
    enforce_arcs = (lifeguard.needs_instruction_arcs
                    or config.ca_touch_threshold_lines > 0)

    programs = build_thread_programs(workload, machine)

    logs, captures, app_cores, lifeguard_cores = [], [], [], []
    for tid in tids:
        log = LogBuffer(engine, config.log_config, name=f"log{tid}",
                        faults=faults)
        capture = OrderCapture(tid, config, log, core_to_tid, current_rids,
                               trace=trace, faults=faults, tracer=tracer)
        ca_hub.register(tid, capture)
        logs.append(log)
        captures.append(capture)

        store_buffer = None
        if config.memory_model is MemoryModel.TSO:
            store_buffer = TsoStoreBuffer(
                engine, config.store_buffer_entries, f"app{tid}")
            store_buffers[tid] = store_buffer
            versioner.register(tid, capture)

        app_core = AppCore(
            engine, f"app{tid}", core_id=tid, tid=tid, program=programs[tid],
            capture=capture, memsys=machine.memsys, memory=machine.memory,
            config=config, hooks=hooks, log=log, store_buffer=store_buffer,
        )
        app_cores.append(app_core)
        drain_actor = None
        if store_buffer is not None:
            drain_actor = StoreBufferDrainActor(
                engine, f"app{tid}.drain", core_id=tid, buffer=store_buffer,
                capture=capture, memsys=machine.memsys, memory=machine.memory,
                log=log, drain_delay=config.tso_drain_delay,
            )
            drain_actor.start()

        lifeguard_core = LifeguardCore(
            engine, f"lifeguard{tid}", core_id=nthreads + tid, tid=tid,
            log=log, lifeguard=lifeguard, memsys=machine.memsys, config=config,
            progress_table=progress, ca_hub=ca_hub, version_store=version_store,
            use_it=accel.use_it, use_if=accel.use_if, use_mtlb=accel.use_mtlb,
            enforce_arcs=enforce_arcs, delayed_advertising=True,
            faults=faults, tracer=tracer,
        )
        lifeguard_cores.append(lifeguard_core)
        ca_hub.register_lifeguard_actor(tid, lifeguard_core)
        # Label conditions with notifier actors so wait-for-graph
        # diagnostics can walk blocked -> condition -> blocker edges.
        log.not_full.owners = [lifeguard_core]
        log.not_empty.owners = ([app_core] if drain_actor is None
                                else [app_core, drain_actor])
        progress.condition(tid).owners = [lifeguard_core]

    def _diagnostics():
        """Extra crash-report context gathered at diagnosis time."""
        extras = {
            "last_retired": {
                c.name: c.last_retired for c in lifeguard_cores},
            "progress": progress.snapshot(),
            "log_occupancy": {
                log.name: {"records": len(log), "bytes": log.occupied_bytes,
                           "closed": log.closed}
                for log in logs},
        }
        if faults is not None:
            extras["injected"] = faults.describe_injected()
        return extras

    engine.diagnostics_provider = _diagnostics

    for core in app_cores:
        core.start()
    for core in lifeguard_cores:
        core.start()

    engine.run(max_cycles=max_cycles)
    for log in logs:
        if not log.drained:
            raise SimulationError(
                f"{log.name}: {len(log)} records left unprocessed after "
                f"completion — the consuming lifeguard died mid-stream")
    total = max(core.finish_time for core in app_cores + lifeguard_cores)

    stats = collect_core_stats(
        machine.memsys, machine.os, captures=captures, logs=logs,
        lifeguard_cores=lifeguard_cores, ca_hub=ca_hub,
    )
    if version_store is not None:
        stats["versions_produced"] = version_store.produced
        stats["versions_consumed"] = version_store.consumed
    stats["progress_publishes"] = progress.publishes
    stats["syscall_races_flagged"] = range_table.races_flagged
    stats["perf"] = collect_perf_stats(machine, lifeguard=lifeguard)
    if faults is not None:
        stats["faults_injected"] = faults.describe_injected()
        stats["log_records_lost"] = sum(log.records_lost for log in logs)

    return RunResult(
        scheme="parallel",
        workload=workload.name,
        lifeguard=lifeguard.name,
        app_threads=nthreads,
        total_cycles=total,
        app_buckets={c.name: c.buckets.as_dict() for c in app_cores},
        lifeguard_buckets={c.name: c.buckets.as_dict() for c in lifeguard_cores},
        violations=lifeguard.report(),
        stats=stats,
        instructions=sum(c.instructions_retired for c in app_cores),
        trace=trace,
        lifeguard_obj=lifeguard,
    )
