"""ParaLog reproduction: online parallel monitoring of multithreaded apps.

A from-scratch Python implementation of the system described in
"ParaLog: Enabling and Accelerating Online Parallel Monitoring of
Multithreaded Applications" (Vlachos et al., ASPLOS 2010): a simulated
CMP with coherence-based dependence capture, per-thread event logs,
order-enforcing lifeguard cores, parallelized hardware accelerators
(Inheritance Tracking, Idempotent Filters, Metadata TLB), ConflictAlert
broadcasts, TSO versioned metadata, and the TaintCheck / AddrCheck
lifeguards — plus the workloads and experiment harness to regenerate the
paper's figures.

Quickstart::

    from repro import (SimulationConfig, build_workload,
                       run_parallel_monitoring, TaintCheck)

    workload = build_workload("swaptions", nthreads=4)
    result = run_parallel_monitoring(
        workload, TaintCheck, SimulationConfig.for_threads(4))
    print(result.summary())
"""

from repro.common.config import (
    CacheConfig,
    CaptureMode,
    LifeguardCostConfig,
    LogBufferConfig,
    MemoryModel,
    ScalePreset,
    SimulationConfig,
)
from repro.common.errors import (
    ConfigurationError,
    DeadlockError,
    ReproError,
    SimulationError,
    SimulationTimeout,
    WorkloadError,
)
from repro.cpu.engine import Watchdog
from repro.faults import Fault, FaultPlan
from repro.lifeguards import (
    AddrCheck,
    LIFEGUARDS,
    Lifeguard,
    LockSet,
    MemCheck,
    TaintCheck,
    Violation,
)
from repro.platform import (
    RunResult,
    crash_report,
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
    write_crash_report,
)
from repro.trace import (
    CATEGORIES as TRACE_CATEGORIES,
    TraceWriter,
    parse_trace_filter,
    read_trace,
    trace_hash,
)
from repro.workloads import PAPER_BENCHMARKS, WORKLOADS, Workload, build_workload

__version__ = "1.0.0"

__all__ = [
    "AddrCheck",
    "CacheConfig",
    "CaptureMode",
    "ConfigurationError",
    "DeadlockError",
    "Fault",
    "FaultPlan",
    "LIFEGUARDS",
    "Lifeguard",
    "LifeguardCostConfig",
    "LockSet",
    "LogBufferConfig",
    "MemCheck",
    "MemoryModel",
    "PAPER_BENCHMARKS",
    "ReproError",
    "RunResult",
    "ScalePreset",
    "SimulationConfig",
    "SimulationError",
    "SimulationTimeout",
    "TRACE_CATEGORIES",
    "TaintCheck",
    "TraceWriter",
    "Violation",
    "WORKLOADS",
    "Watchdog",
    "Workload",
    "WorkloadError",
    "build_workload",
    "crash_report",
    "parse_trace_filter",
    "read_trace",
    "run_no_monitoring",
    "run_parallel_monitoring",
    "run_timesliced_monitoring",
    "trace_hash",
    "write_crash_report",
]
