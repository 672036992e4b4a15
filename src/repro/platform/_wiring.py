"""Shared wiring helpers for the three run schemes."""

from __future__ import annotations

from typing import Dict, List

from repro.common.config import SimulationConfig
from repro.cpu.engine import Engine, Watchdog
from repro.cpu.os_model import AddressLayout, OSRuntime
from repro.isa.program import ThreadApi
from repro.memory.coherence import CoherentMemorySystem
from repro.memory.mainmem import MainMemory


class Machine:
    """One simulated machine instance (engine + memory + OS)."""

    def __init__(self, config: SimulationConfig, num_cores: int,
                 watchdog: Watchdog = None, tracer=None):
        self.config = config
        self.engine = Engine(watchdog=watchdog, tracer=tracer)
        self.memory = MainMemory()
        self.memsys = CoherentMemorySystem(config, num_cores)
        self.os = OSRuntime(self.memory, config)
        self.layout = AddressLayout


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


def collect_perf_stats(machine: Machine, lifeguard=None) -> Dict[str, int]:
    """Hot-path counters for the :mod:`repro.perf` benchmark harness.

    Deterministic, machine-independent measures of how much work a run
    did: engine events popped, and (for monitored runs) shadow-memory
    chunk residency/allocation from the lifeguard's metadata map.
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
