"""The TIMESLICED MONITORING scheme — today's state of the art.

All application threads are time-sliced onto a single core, producing
one interleaved event stream that a single lifeguard core analyses
sequentially with the *sequential* accelerators. Threads sharing one
core never generate coherence traffic between themselves, so the stream
needs no dependence arcs — its interleaving *is* the order — and no
ConflictAlert broadcasts (there is nobody to alert). This is exactly the
configuration the paper's PARALLEL scheme is compared against.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional

from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError
from repro.cpu.cores import MonitoringHooks, TimeslicedAppCore
from repro.cpu.lifeguard_core import LifeguardCore
from repro.cpu.os_model import AddressLayout
from repro.enforce.progress import ProgressTable
from repro.enforce.range_table import SyscallRangeTable
from repro.isa.instructions import HLEventKind
from repro.platform._wiring import (
    Machine,
    build_thread_programs,
    collect_core_stats,
    collect_perf_stats,
)
from repro.platform.monitor_config import AcceleratorConfig
from repro.platform.results import RunResult

DEFAULT_CONTAINMENT = frozenset({HLEventKind.SYSCALL_WRITE})


def run_timesliced_monitoring(
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
    """Run a workload under the time-sliced monitoring baseline.

    ``fault_plan``/``watchdog``/``max_cycles``/``tracer`` mirror the
    parallel scheme's robustness and observability surface (arc and CA
    trace events never fire here — a single interleaved stream has
    neither).
    """
    nthreads = workload.nthreads
    config = config or SimulationConfig.for_threads(nthreads)
    accel = accel or AcceleratorConfig.all_on()
    if containment_kinds is None:
        containment_kinds = DEFAULT_CONTAINMENT
    faults = fault_plan if (fault_plan is not None and fault_plan.enabled) else None

    # one app core, one lifeguard core
    machine = Machine(config, num_cores=2, watchdog=watchdog, tracer=tracer)
    engine = machine.engine
    tids = list(range(nthreads))

    lifeguard = lifeguard_factory(
        costs=config.lifeguard_costs, heap_range=AddressLayout.heap_range()
    )
    range_table = SyscallRangeTable()
    lifeguard.range_table = range_table
    progress = ProgressTable(engine, tids, faults=faults, tracer=tracer)

    hooks = MonitoringHooks(
        ca_hub=None, ca_subscriptions=frozenset(),
        progress_table=progress, containment_kinds=containment_kinds,
    )

    trace = [] if keep_trace else None
    log = LogBuffer(engine, config.log_config, name="log", faults=faults)
    core_to_tid = {}  # single app core: no cross-thread coherence, no arcs
    current_rids = {}
    captures = {
        tid: OrderCapture(tid, config, log, core_to_tid, current_rids,
                          trace=trace, tracer=tracer)
        for tid in tids
    }

    programs = build_thread_programs(workload, machine)
    app_core = TimeslicedAppCore(
        engine, "app", core_id=0,
        programs={tid: programs[tid] for tid in tids},
        captures=captures, memsys=machine.memsys, memory=machine.memory,
        config=config, hooks=hooks, log=log,
    )
    lifeguard_core = LifeguardCore(
        engine, "lifeguard", core_id=1, tid=None, log=log,
        lifeguard=lifeguard, memsys=machine.memsys, config=config,
        progress_table=progress, ca_hub=None, version_store=None,
        use_it=accel.use_it, use_if=accel.use_if, use_mtlb=accel.use_mtlb,
        enforce_arcs=False, delayed_advertising=False, faults=faults,
        tracer=tracer,
    )
    log.not_full.owners = [lifeguard_core]
    log.not_empty.owners = [app_core]

    def _diagnostics():
        """Crash-report context for the single-stream baseline."""
        extras = {
            "last_retired": {lifeguard_core.name: lifeguard_core.last_retired},
            "progress": progress.snapshot(),
            "log_occupancy": {
                log.name: {"records": len(log), "bytes": log.occupied_bytes,
                           "closed": log.closed}},
        }
        if faults is not None:
            extras["injected"] = faults.describe_injected()
        return extras

    engine.diagnostics_provider = _diagnostics

    app_core.start()
    lifeguard_core.start()

    engine.run(max_cycles=max_cycles)
    if not log.drained:
        raise SimulationError(
            f"{log.name}: {len(log)} records left unprocessed after "
            f"completion — the consuming lifeguard died mid-stream")
    total = max(app_core.finish_time, lifeguard_core.finish_time)

    stats = collect_core_stats(
        machine.memsys, machine.os, captures=list(captures.values()),
        logs=[log], lifeguard_cores=[lifeguard_core],
    )
    stats["context_switches"] = app_core.context_switches
    stats["syscall_races_flagged"] = range_table.races_flagged
    stats["perf"] = collect_perf_stats(machine, lifeguard=lifeguard)
    if faults is not None:
        stats["faults_injected"] = faults.describe_injected()
        stats["log_records_lost"] = log.records_lost

    return RunResult(
        scheme="timesliced",
        workload=workload.name,
        lifeguard=lifeguard.name,
        app_threads=nthreads,
        total_cycles=total,
        app_buckets={app_core.name: app_core.buckets.as_dict()},
        lifeguard_buckets={lifeguard_core.name: lifeguard_core.buckets.as_dict()},
        violations=lifeguard.report(),
        stats=stats,
        instructions=app_core.instructions_retired,
        trace=trace,
        lifeguard_obj=lifeguard,
    )
