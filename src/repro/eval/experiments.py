"""Experiment drivers for the paper's evaluation (Section 7).

Every function is deterministic for a given (scale, seed) and returns a
plain-data result object; nothing here prints. Workloads are rebuilt
fresh for every run (generators are single-use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.config import CaptureMode, ScalePreset, SimulationConfig
from repro.lifeguards import LIFEGUARDS
from repro.platform import (
    AcceleratorConfig,
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.workloads import PAPER_BENCHMARKS, build_workload

DEFAULT_THREADS = (1, 2, 4, 8)


def _config(threads: int, scale_independent_overrides: dict = None,
            **overrides) -> SimulationConfig:
    return SimulationConfig.for_threads(threads, **(overrides or {}))


def _lifeguard(name: str):
    try:
        return LIFEGUARDS[name]
    except KeyError:
        raise ValueError(
            f"unknown lifeguard {name!r}; available: {sorted(LIFEGUARDS)}"
        ) from None


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def table1_setup(threads: int = 8) -> List[Tuple[str, str]]:
    """The active simulation parameters, mirroring Table 1's rows."""
    config = SimulationConfig.for_threads(threads)
    l1 = config.l1_config
    l2 = config.l2_config
    return [
        ("Cores", f"{2 * threads} (={threads} app + {threads} lifeguard), "
                  "in-order scalar"),
        ("Private L1-D", f"{l1.size_bytes // 1024}KB, {l1.line_bytes}B line, "
                         f"{l1.associativity}-way, {l1.access_latency}-cycle"),
        ("Shared L2", f"{l2.size_bytes // (1024 * 1024)}MB, {l2.line_bytes}B "
                      f"line, {l2.associativity}-way, "
                      f"{l2.access_latency}-cycle"),
        ("Main memory", f"{config.memory_latency}-cycle latency"),
        ("Log buffer", f"{config.log_config.size_bytes // 1024}KB, "
                       f"~{config.log_config.bytes_per_record:g}B per "
                       "compressed record"),
        ("Memory model", config.memory_model.value.upper()),
        ("Dependence capture", config.capture_mode.value),
        ("Benchmarks", ", ".join(PAPER_BENCHMARKS)),
    ]


# ---------------------------------------------------------------------------
# Figure 6: execution time under the three schemes
# ---------------------------------------------------------------------------

@dataclass
class Figure6Result:
    lifeguard: str
    scale: ScalePreset
    #: benchmark -> threads -> absolute cycles per scheme.
    cycles: Dict[str, Dict[int, Dict[str, int]]] = field(default_factory=dict)
    #: benchmark -> 1-thread no-monitoring cycles (the normalization base).
    base: Dict[str, int] = field(default_factory=dict)

    def normalized(self, benchmark: str, threads: int, scheme: str) -> float:
        """Execution time normalized to sequential, unmonitored execution."""
        return self.cycles[benchmark][threads][scheme] / self.base[benchmark]

    def speedup_over_timesliced(self, benchmark: str, threads: int) -> float:
        row = self.cycles[benchmark][threads]
        return row["timesliced"] / row["parallel"]

    def rows(self) -> List[tuple]:
        out = []
        for benchmark in self.cycles:
            for threads in sorted(self.cycles[benchmark]):
                row = self.cycles[benchmark][threads]
                out.append((
                    benchmark, threads,
                    round(self.normalized(benchmark, threads, "no_monitoring"), 3),
                    round(self.normalized(benchmark, threads, "timesliced"), 3),
                    round(self.normalized(benchmark, threads, "parallel"), 3),
                    round(row["timesliced"] / row["parallel"], 2),
                ))
        return out


def _figure6_cell(payload: dict) -> Dict[str, int]:
    """``repro.jobs`` worker: one (benchmark, threads) Figure 6 cell."""
    lifeguard = _lifeguard(payload["lifeguard"])
    benchmark = payload["benchmark"]
    threads = payload["threads"]
    scale = ScalePreset(payload["scale"])
    seed = payload["seed"]
    config = _config(threads)
    base = run_no_monitoring(
        build_workload(benchmark, threads, scale, seed), config)
    timesliced = run_timesliced_monitoring(
        build_workload(benchmark, threads, scale, seed), lifeguard, config)
    parallel = run_parallel_monitoring(
        build_workload(benchmark, threads, scale, seed), lifeguard, config)
    return {
        "no_monitoring": base.total_cycles,
        "timesliced": timesliced.total_cycles,
        "parallel": parallel.total_cycles,
    }


def _run_cells(figure: str, worker, payloads: List[dict], jobs: int,
               tracer=None) -> List[dict]:
    """Run figure cells through the :mod:`repro.jobs` executor (inline
    at ``jobs=1``, worker processes otherwise). Results come back in the
    canonical ``payloads`` order — the simulator is deterministic per
    seed, so every ``jobs`` value produces identical cell values."""
    from repro.jobs import Job, cell_values, run_jobs

    # The index keeps ids unique when a caller repeats a benchmark.
    job_list = [
        Job(f"{figure}:{index}:{p['lifeguard']}:{p['benchmark']}"
            f":t{p.get('threads', 0)}:s{p['seed']}", p)
        for index, p in enumerate(payloads)
    ]
    return cell_values(run_jobs(job_list, worker, nworkers=jobs,
                                tracer=tracer), figure)


def figure6(lifeguard_name: str,
            benchmarks: Iterable[str] = PAPER_BENCHMARKS,
            thread_counts: Iterable[int] = DEFAULT_THREADS,
            scale: ScalePreset = ScalePreset.TINY,
            seed: int = 1, jobs: int = 1, tracer=None) -> Figure6Result:
    """Regenerate Figure 6 for one lifeguard.

    For k application threads the NO MONITORING, TIMESLICED and PARALLEL
    schemes run on 2k, 2 and 2k cores respectively, exactly as the paper
    configures them; times are normalized to the application running
    sequentially without monitoring. ``jobs=N`` fans the
    benchmark × thread-count cells out over worker processes.
    """
    _lifeguard(lifeguard_name)  # fail fast on unknown names
    benchmarks = tuple(benchmarks)
    thread_counts = tuple(thread_counts)
    payloads = [
        {"lifeguard": lifeguard_name, "benchmark": benchmark,
         "threads": threads, "scale": scale.value, "seed": seed}
        for benchmark in benchmarks for threads in thread_counts
    ]
    cells = _run_cells("figure6", _figure6_cell, payloads, jobs, tracer)
    result = Figure6Result(lifeguard=lifeguard_name, scale=scale)
    for payload, cell in zip(payloads, cells):
        result.cycles.setdefault(payload["benchmark"], {})[
            payload["threads"]] = cell
    for benchmark in benchmarks:
        result.base[benchmark] = result.cycles[benchmark][
            min(thread_counts)]["no_monitoring"]
    return result


# ---------------------------------------------------------------------------
# Figure 7: slowdown breakdown of PARALLEL monitoring
# ---------------------------------------------------------------------------

@dataclass
class Figure7Result:
    lifeguard: str
    scale: ScalePreset
    #: benchmark -> threads -> dict with slowdown + stacked components.
    breakdown: Dict[str, Dict[int, Dict[str, float]]] = field(
        default_factory=dict)

    def rows(self) -> List[tuple]:
        out = []
        for benchmark in self.breakdown:
            for threads in sorted(self.breakdown[benchmark]):
                cell = self.breakdown[benchmark][threads]
                out.append((
                    benchmark, threads,
                    round(cell["slowdown"], 3),
                    round(cell["useful"], 3),
                    round(cell["wait_dependence"], 3),
                    round(cell["wait_application"], 3),
                ))
        return out


def _figure7_cell(payload: dict) -> Dict[str, float]:
    """``repro.jobs`` worker: one (benchmark, threads) Figure 7 cell."""
    lifeguard = _lifeguard(payload["lifeguard"])
    benchmark = payload["benchmark"]
    threads = payload["threads"]
    scale = ScalePreset(payload["scale"])
    seed = payload["seed"]
    config = _config(threads)
    base = run_no_monitoring(
        build_workload(benchmark, threads, scale, seed), config)
    parallel = run_parallel_monitoring(
        build_workload(benchmark, threads, scale, seed), lifeguard, config)
    slowdown = parallel.total_cycles / base.total_cycles
    fractions = parallel.lifeguard_breakdown()
    return {
        "slowdown": slowdown,
        # Stacked bars: each component as its share of the bar.
        "useful": slowdown * fractions.get("useful", 0.0),
        "wait_dependence": slowdown * fractions.get("wait_dependence", 0.0),
        "wait_application": slowdown * fractions.get("wait_application", 0.0),
    }


def figure7(lifeguard_name: str,
            benchmarks: Iterable[str] = PAPER_BENCHMARKS,
            thread_counts: Iterable[int] = DEFAULT_THREADS,
            scale: ScalePreset = ScalePreset.TINY,
            seed: int = 1, jobs: int = 1, tracer=None) -> Figure7Result:
    """Regenerate Figure 7: parallel-monitoring slowdown decomposed into
    useful work, waiting-for-dependence and waiting-for-application,
    normalized to the same-thread-count unmonitored run."""
    _lifeguard(lifeguard_name)
    payloads = [
        {"lifeguard": lifeguard_name, "benchmark": benchmark,
         "threads": threads, "scale": scale.value, "seed": seed}
        for benchmark in tuple(benchmarks)
        for threads in tuple(thread_counts)
    ]
    cells = _run_cells("figure7", _figure7_cell, payloads, jobs, tracer)
    result = Figure7Result(lifeguard=lifeguard_name, scale=scale)
    for payload, cell in zip(payloads, cells):
        result.breakdown.setdefault(payload["benchmark"], {})[
            payload["threads"]] = cell
    return result


# ---------------------------------------------------------------------------
# Figure 8: accelerator and dependence-reduction ablations
# ---------------------------------------------------------------------------

@dataclass
class Figure8Result:
    lifeguard: str
    threads: int
    scale: ScalePreset
    #: benchmark -> variant -> slowdown over no-monitoring.
    slowdowns: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def accelerator_speedup(self, benchmark: str) -> float:
        cell = self.slowdowns[benchmark]
        return cell["not_accelerated"] / cell["accelerated_aggressive"]

    def rows(self) -> List[tuple]:
        out = []
        for benchmark, cell in self.slowdowns.items():
            out.append((
                benchmark,
                round(cell["not_accelerated"], 2),
                round(cell.get("accelerated_limited", float("nan")), 2),
                round(cell["accelerated_aggressive"], 2),
                round(self.accelerator_speedup(benchmark), 2),
            ))
        return out


def _figure8_cell(payload: dict) -> Dict[str, float]:
    """``repro.jobs`` worker: one per-benchmark Figure 8 cell."""
    lifeguard = _lifeguard(payload["lifeguard"])
    benchmark = payload["benchmark"]
    threads = payload["threads"]
    scale = ScalePreset(payload["scale"])
    seed = payload["seed"]
    base = run_no_monitoring(
        build_workload(benchmark, threads, scale, seed),
        _config(threads)).total_cycles
    cell: Dict[str, float] = {}
    not_accel = run_parallel_monitoring(
        build_workload(benchmark, threads, scale, seed), lifeguard,
        _config(threads), accel=AcceleratorConfig.all_off())
    cell["not_accelerated"] = not_accel.total_cycles / base
    if payload["include_limited"]:
        limited = run_parallel_monitoring(
            build_workload(benchmark, threads, scale, seed), lifeguard,
            _config(threads, capture_mode=CaptureMode.PER_CORE))
        cell["accelerated_limited"] = limited.total_cycles / base
    aggressive = run_parallel_monitoring(
        build_workload(benchmark, threads, scale, seed), lifeguard,
        _config(threads))
    cell["accelerated_aggressive"] = aggressive.total_cycles / base
    return cell


def figure8(lifeguard_name: str,
            benchmarks: Iterable[str] = PAPER_BENCHMARKS,
            threads: int = 8,
            scale: ScalePreset = ScalePreset.TINY,
            seed: int = 1,
            include_limited: Optional[bool] = None,
            jobs: int = 1, tracer=None) -> Figure8Result:
    """Regenerate Figure 8 for one lifeguard at a fixed thread count.

    Variants: NOT ACCELERATED (aggressive per-block dependence
    reduction, no IT/IF/M-TLB), ACCELERATED with LIMITED reduction
    (per-core counters), and ACCELERATED with AGGRESSIVE reduction.
    The paper shows the limited-reduction bar for TaintCheck only; pass
    ``include_limited`` to override.
    """
    _lifeguard(lifeguard_name)
    if include_limited is None:
        include_limited = lifeguard_name == "taintcheck"
    payloads = [
        {"lifeguard": lifeguard_name, "benchmark": benchmark,
         "threads": threads, "scale": scale.value, "seed": seed,
         "include_limited": include_limited}
        for benchmark in tuple(benchmarks)
    ]
    cells = _run_cells("figure8", _figure8_cell, payloads, jobs, tracer)
    result = Figure8Result(lifeguard=lifeguard_name, threads=threads,
                           scale=scale)
    for payload, cell in zip(payloads, cells):
        result.slowdowns[payload["benchmark"]] = cell
    return result


# ---------------------------------------------------------------------------
# Headline claims and the swaptions analysis
# ---------------------------------------------------------------------------

def headline_summary(benchmarks: Iterable[str] = PAPER_BENCHMARKS,
                     threads: int = 8,
                     scale: ScalePreset = ScalePreset.TINY,
                     seed: int = 1) -> Dict[str, object]:
    """The abstract's three claims, measured on this reproduction:

    1. parallel-accelerator speedups (per lifeguard, min-max),
    2. speedup over the time-slicing approach (min-max across both
       lifeguards), and
    3. average parallel-monitoring overhead at ``threads`` app threads.
    """
    summary: Dict[str, object] = {"threads": threads, "scale": scale.value}
    ts_speedups: List[float] = []
    for lifeguard_name in ("taintcheck", "addrcheck"):
        fig8 = figure8(lifeguard_name, benchmarks, threads, scale, seed,
                       include_limited=False)
        speedups = [fig8.accelerator_speedup(b) for b in fig8.slowdowns]
        overheads = [cell["accelerated_aggressive"] - 1.0
                     for cell in fig8.slowdowns.values()]
        fig6 = figure6(lifeguard_name, benchmarks, (threads,), scale, seed)
        ts_speedups.extend(
            fig6.speedup_over_timesliced(b, threads) for b in benchmarks)
        summary[lifeguard_name] = {
            "accelerator_speedup_min": round(min(speedups), 2),
            "accelerator_speedup_max": round(max(speedups), 2),
            "average_overhead": round(sum(overheads) / len(overheads), 3),
        }
    summary["timesliced_speedup_min"] = round(min(ts_speedups), 2)
    summary["timesliced_speedup_max"] = round(max(ts_speedups), 2)
    return summary


def swaptions_analysis(threads: int = 8,
                       scale: ScalePreset = ScalePreset.TINY,
                       seed: int = 1) -> Dict[str, object]:
    """The Section 7 swaptions discussion: allocation counts, the
    allocation-size CDF, and ConflictAlert pressure."""
    result = run_parallel_monitoring(
        build_workload("swaptions", threads, scale, seed),
        _lifeguard("addrcheck"), _config(threads))
    allocations = result.stats["allocations"]
    histogram = allocations["line_histogram"]
    total = sum(histogram.values()) or 1
    frac_le = lambda lines: sum(
        count for size, count in histogram.items() if size <= lines) / total
    return {
        "threads": threads,
        "alloc_free_pairs": min(allocations["count"], allocations["frees"]),
        "fraction_at_most_1_block": round(frac_le(1), 3),
        "fraction_at_most_32_blocks": round(frac_le(32), 3),
        "fraction_at_most_128_blocks": round(frac_le(128), 3),
        "ca_broadcasts": result.stats.get("ca_broadcasts", 0),
        "ca_stalls": result.stats.get("ca_stalls", 0),
        # The paper: "the median stall time for one of these lifeguard
        # synchronization events is over 500,000 cycles".
        "median_stall_cycles": result.stats.get("median_stall_cycles", 0),
        "max_stall_cycles": result.stats.get("max_stall_cycles", 0),
        "wait_dependence_fraction": round(
            result.lifeguard_breakdown().get("wait_dependence", 0.0), 3),
    }


def constant_resource_comparison(
        benchmarks: Iterable[str] = PAPER_BENCHMARKS,
        cores: int = 8,
        scale: ScalePreset = ScalePreset.TINY,
        seed: int = 1) -> Dict[str, Dict[str, float]]:
    """The paper's Constant-Resource framing (Section 7).

    The main evaluation holds the application size constant and *adds*
    cores for the lifeguards. This view instead fixes the core budget at
    ``cores``: compare the application using all cores for itself
    (``cores``-thread NO MONITORING) against giving half of them to
    lifeguards (``cores/2``-thread PARALLEL monitoring) — the
    opportunity cost of monitoring. The paper derives it from Figure 6's
    data the same way.
    """
    if cores % 2:
        raise ValueError("the core budget must be even")
    out: Dict[str, Dict[str, float]] = {}
    lifeguard = _lifeguard("taintcheck")
    for benchmark in benchmarks:
        all_app = run_no_monitoring(
            build_workload(benchmark, cores, scale, seed), _config(cores))
        half_monitored = run_parallel_monitoring(
            build_workload(benchmark, cores // 2, scale, seed), lifeguard,
            _config(cores // 2))
        out[benchmark] = {
            "all_cores_unmonitored_cycles": all_app.total_cycles,
            "half_cores_monitored_cycles": half_monitored.total_cycles,
            "opportunity_cost": round(
                half_monitored.total_cycles / all_app.total_cycles, 3),
        }
    return out
