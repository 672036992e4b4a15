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

import itertools
from typing import Callable, Optional

from repro.capture.log_buffer import LogBuffer
from repro.capture.order_capture import OrderCapture
from repro.common.config import SimulationConfig
from repro.cpu.cores import AppCore, MonitoringHooks
from repro.cpu.lifeguard_core import LifeguardCore
from repro.enforce.progress import ProgressTable
from repro.platform._wiring import (
    DEFAULT_CONTAINMENT,
    Machine,
    active_faults,
    add_monitored_stats,
    build_lifeguard,
    build_thread_programs,
    check_drained,
    collect_core_stats,
    diagnostics_provider,
    run_result,
)
from repro.platform.results import RunResult


def run_timesliced_monitoring(
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
    """Run a workload under the time-sliced monitoring baseline.

    ``accel``, containment and ``fault_plan``/``watchdog``/
    ``max_cycles``/``tracer`` mirror the parallel scheme (arc and CA
    trace events never fire here — a single interleaved stream has
    neither).
    """
    nthreads = workload.nthreads
    config = config or SimulationConfig.for_threads(nthreads)
    faults = active_faults(fault_plan)

    # one app core, one lifeguard core
    machine = Machine(config, num_cores=2, watchdog=watchdog, tracer=tracer)
    engine = machine.engine
    tids = list(range(nthreads))

    lifeguard = build_lifeguard(lifeguard_factory, config)
    progress = ProgressTable(engine, tids, faults=faults, tracer=tracer)

    hooks = MonitoringHooks(
        ca_hub=None, ca_subscriptions=frozenset(),
        progress_table=progress, containment_kinds=DEFAULT_CONTAINMENT,
    )

    trace = [] if keep_trace else None
    log = LogBuffer(engine, config.log_config, name="log", faults=faults)
    core_to_tid = {}  # single app core: no cross-thread coherence, no arcs
    current_rids = {}
    clock = itertools.count(1)  # the run's commit clock
    captures = {
        tid: OrderCapture(tid, config, log, core_to_tid, current_rids,
                          clock, trace=trace, tracer=tracer)
        for tid in tids
    }

    programs = build_thread_programs(workload, machine)
    app_core = AppCore(
        engine, "app", core_id=0, programs=dict(enumerate(programs)),
        captures=captures, memsys=machine.memsys, memory=machine.memory,
        config=config, hooks=hooks, log=log,
    )
    lifeguard_core = LifeguardCore(
        engine, "lifeguard", core_id=1, tid=None, log=log,
        lifeguard=lifeguard, memsys=machine.memsys, config=config,
        progress_table=progress, ca_hub=None, version_store=None,
        accel=accel, faults=faults, tracer=tracer,
    )
    log.not_full.owners = [lifeguard_core.name]
    log.not_empty.owners = [app_core.name]

    engine.diagnostics_provider = diagnostics_provider(
        [lifeguard_core], progress, [log], faults)

    app_core.start()
    lifeguard_core.start()

    engine.run(max_cycles=max_cycles)
    check_drained([log])

    stats = collect_core_stats(
        machine.memsys, machine.os, captures=list(captures.values()),
        logs=[log], lifeguard_cores=[lifeguard_core],
    )
    stats["context_switches"] = app_core.context_switches
    add_monitored_stats(stats, machine, lifeguard, faults, [log])
    return run_result("timesliced", workload, [app_core], stats,
                      lifeguard=lifeguard, lifeguard_cores=[lifeguard_core],
                      trace=trace)
