"""Shared wiring helpers for the three run schemes."""

from __future__ import annotations

from typing import Dict, List

from repro.common.config import MemoryModel, SimulationConfig
from repro.common.errors import SimulationError
from repro.cpu.cores import AppCore, StoreBufferDrainActor, TsoStoreBuffer
from repro.cpu.engine import Engine, Watchdog
from repro.cpu.os_model import AddressLayout, OSRuntime
from repro.enforce.range_table import SyscallRangeTable
from repro.isa.instructions import HLEventKind
from repro.isa.program import ThreadApi
from repro.memory.coherence import CoherentMemorySystem
from repro.memory.mainmem import MainMemory
from repro.platform.results import RunResult

#: System calls that stall the application until its lifeguard catches up
#: (damage containment at the system-call boundary, Section 3).
DEFAULT_CONTAINMENT = frozenset({HLEventKind.SYSCALL_WRITE})


class Machine:
    """One simulated machine instance (engine + memory + OS)."""

    def __init__(self, config: SimulationConfig, num_cores: int,
                 watchdog: Watchdog = None, tracer=None):
        self.config = config
        self.engine = Engine(watchdog=watchdog, tracer=tracer)
        self.memory = MainMemory()
        self.memsys = CoherentMemorySystem(config, num_cores)
        self.os = OSRuntime(self.memory, config)


def build_thread_programs(workload, machine: Machine) -> List:
    """Instantiate the workload's per-thread generators on a machine."""
    apis = [ThreadApi(tid, machine.os) for tid in range(workload.nthreads)]
    workload.initialize(machine.memory, machine.os)
    programs = workload.thread_programs(apis)
    if len(programs) != workload.nthreads:
        raise ValueError(
            f"workload {workload.name} built {len(programs)} programs "
            f"for {workload.nthreads} threads"
        )
    return programs


def active_faults(fault_plan):
    """The plan to arm, or None.

    A disabled plan must leave every hot path untouched — hooks guard
    on ``faults is not None`` — so "no faults" normalizes to None.
    """
    return fault_plan if (fault_plan is not None and fault_plan.enabled) else None


def build_lifeguard(lifeguard_factory, config: SimulationConfig):
    """The run's lifeguard, with its own :class:`SyscallRangeTable`."""
    lifeguard = lifeguard_factory(
        costs=config.lifeguard_costs, heap_range=AddressLayout.heap_range())
    lifeguard.range_table = SyscallRangeTable()
    return lifeguard


def build_app_core(machine: Machine, tid: int, program, capture, hooks,
                   log=None):
    """App core ``tid``; under TSO also its store buffer and a started
    drain actor. Returns ``(core, store_buffer, drain_actor)``, the last
    two None under SC. The core itself is not started."""
    config, engine = machine.config, machine.engine
    store_buffer = drain_actor = None
    if config.memory_model is MemoryModel.TSO:
        store_buffer = TsoStoreBuffer(
            engine, config.store_buffer_entries, f"app{tid}")
    core = AppCore(
        engine, f"app{tid}", core_id=tid, programs={tid: program},
        captures={tid: capture}, memsys=machine.memsys, memory=machine.memory,
        config=config, hooks=hooks, log=log, store_buffer=store_buffer,
    )
    if store_buffer is not None:
        drain_actor = StoreBufferDrainActor(
            engine, f"app{tid}.drain", core_id=tid, buffer=store_buffer,
            capture=capture, memsys=machine.memsys, memory=machine.memory,
            log=log, drain_delay=config.tso_drain_delay,
        )
        drain_actor.start()
    return core, store_buffer, drain_actor


def diagnostics_provider(lifeguard_cores, progress, logs, faults):
    """The engine's crash-report context, gathered at diagnosis time."""
    def _diagnostics():
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
    return _diagnostics


def check_drained(logs) -> None:
    """Every log must be empty once the run completes."""
    for log in logs:
        if not log.drained:
            raise SimulationError(
                f"{log.name}: {len(log)} records left unprocessed after "
                f"completion — the consuming lifeguard died mid-stream")


def add_monitored_stats(stats: Dict[str, object], machine: Machine,
                        lifeguard, faults, logs) -> None:
    """The stats every monitored scheme ends with."""
    stats["syscall_races_flagged"] = lifeguard.range_table.races_flagged
    stats["perf"] = collect_perf_stats(machine, lifeguard=lifeguard)
    if faults is not None:
        stats["faults_injected"] = faults.describe_injected()
        stats["log_records_lost"] = sum(log.records_lost for log in logs)


def run_result(scheme: str, workload, app_cores, stats, lifeguard=None,
               lifeguard_cores=(), trace=None) -> RunResult:
    """Package a finished run; the lifeguard is None when unmonitored."""
    cores = list(app_cores) + list(lifeguard_cores)
    return RunResult(
        scheme=scheme,
        workload=workload.name,
        lifeguard=None if lifeguard is None else lifeguard.name,
        app_threads=workload.nthreads,
        total_cycles=max(core.finish_time for core in cores),
        app_buckets={c.name: c.buckets.as_dict() for c in app_cores},
        lifeguard_buckets={c.name: c.buckets.as_dict()
                           for c in lifeguard_cores},
        violations=[] if lifeguard is None else lifeguard.report(),
        stats=stats,
        instructions=sum(c.instructions_retired for c in app_cores),
        trace=trace,
        lifeguard_obj=lifeguard,
    )


def collect_perf_stats(machine: Machine, lifeguard=None) -> Dict[str, int]:
    """Hot-path counters, stored as ``stats["perf"]``.

    Deterministic, machine-independent measures of how much work a run
    did: engine events popped, and (for monitored runs) shadow-memory
    chunk residency/allocation from the lifeguard's metadata map. The
    end-to-end benchmark (``benchmarks/e2e``) reports them per layer;
    ``tests/test_lifeguard_costs.py`` and the acceptance sweep in
    ``tests/test_trace_diff.py`` pin them exactly.
    """
    perf: Dict[str, int] = {"events_popped": machine.engine.events_popped}
    if lifeguard is not None:
        metadata = lifeguard.metadata
        perf["shadow_chunks_peak"] = metadata.peak_chunks
        perf["shadow_chunk_allocs"] = metadata.chunk_allocations
    else:
        perf["shadow_chunks_peak"] = 0
        perf["shadow_chunk_allocs"] = 0
    return perf


def collect_core_stats(memsys: CoherentMemorySystem, os_runtime: OSRuntime,
                       captures=(), logs=(), lifeguard_cores=(),
                       ca_hub=None) -> Dict[str, object]:
    """Flatten component statistics into a RunResult stats dict."""
    stats: Dict[str, object] = {}
    stats["coherence"] = memsys.stats_snapshot()
    stats["allocations"] = {
        "count": os_runtime.alloc_count,
        "frees": os_runtime.free_count,
        "line_histogram": dict(os_runtime.alloc_line_histogram),
    }
    if captures:
        stats["arcs_recorded"] = sum(c.arcs_recorded for c in captures)
        stats["arcs_reduced"] = sum(c.arcs_reduced for c in captures)
    if logs:
        stats["log_records"] = sum(log.total_records for log in logs)
        stats["log_bytes"] = sum(log.total_bytes for log in logs)
        stats["log_peak_bytes"] = max(log.peak_bytes for log in logs)
    if lifeguard_cores:
        stats["events_delivered"] = sum(c.events_delivered for c in lifeguard_cores)
        stats["events_filtered"] = sum(c.events_filtered for c in lifeguard_cores)
        stats["records_processed"] = sum(c.records_processed for c in lifeguard_cores)
        stats["dependence_stalls"] = sum(c.dependence_stalls for c in lifeguard_cores)
        stats["ca_stalls"] = sum(c.ca_stalls for c in lifeguard_cores)
        durations = sorted(
            d for c in lifeguard_cores for d in c.stall_durations)
        if durations:
            stats["median_stall_cycles"] = durations[len(durations) // 2]
            stats["max_stall_cycles"] = durations[-1]
        stats["it_absorbed"] = sum(c.it.absorbed_events for c in lifeguard_cores)
        stats["it_condensed"] = sum(c.it.delivered_condensed for c in lifeguard_cores)
        stats["if_hits"] = sum(c.iff.hits for c in lifeguard_cores)
        stats["if_misses"] = sum(c.iff.misses for c in lifeguard_cores)
        stats["mtlb_hits"] = sum(c.mtlb.hits for c in lifeguard_cores)
        stats["mtlb_misses"] = sum(c.mtlb.misses for c in lifeguard_cores)
    if ca_hub is not None:
        stats["ca_broadcasts"] = ca_hub.broadcasts
        stats["ca_marks"] = ca_hub.marks_inserted
    return stats
