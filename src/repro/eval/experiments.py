"""Experiment drivers for the paper's evaluation (Section 7).

Every function is deterministic for a given (scale, seed) and returns a
plain-data result object; nothing here prints. Workloads are rebuilt
fresh for every run (generators are single-use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.common.config import CaptureMode, ScalePreset, SimulationConfig
from repro.jobs import Job, cell_values, run_jobs
from repro.lifeguards import LIFEGUARDS
from repro.platform import run_scheme
from repro.workloads import PAPER_BENCHMARKS, build_workload

DEFAULT_THREADS = (1, 2, 4, 8)


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
# The run table every figure reads
# ---------------------------------------------------------------------------

#: run name -> (scheme, ``SimulationConfig.for_threads`` overrides,
#: ``run_scheme`` keywords). ``parallel`` is also Figure 8's
#: ACCELERATED/AGGRESSIVE bar.
_RUNS = {
    "no_monitoring": ("none", {}, {}),
    "timesliced": ("timesliced", {}, {}),
    "parallel": ("parallel", {}, {}),
    "not_accelerated": ("parallel", {}, {"no_accel": True}),
    "accelerated_limited": (
        "parallel", {"capture_mode": CaptureMode.PER_CORE}, {}),
}


def _cell(payload: dict) -> Dict[str, dict]:
    """``repro.jobs`` worker: the ``payload["runs"]`` of one (benchmark,
    threads) machine, each as its cycle count and its lifeguard time
    breakdown (:meth:`RunResult.lifeguard_breakdown`)."""
    lifeguard = _lifeguard(payload["lifeguard"])
    benchmark, threads = payload["benchmark"], payload["threads"]
    cell = {}
    for run in payload["runs"]:
        scheme, overrides, keywords = _RUNS[run]
        result = run_scheme(
            scheme, build_workload(benchmark, threads, payload["scale"],
                                   payload["seed"]),
            lifeguard, SimulationConfig.for_threads(threads, **overrides),
            **keywords)
        cell[run] = {"cycles": result.total_cycles,
                     "breakdown": result.lifeguard_breakdown()}
    return cell


Cells = Dict[Tuple[str, int], Dict[str, dict]]


def _cells(lifeguard_name: str, benchmarks: Iterable[str],
           thread_counts: Iterable[int], runs: Sequence[str],
           scale: ScalePreset, seed: int, jobs: int = 1) -> Cells:
    """``{(benchmark, threads): cell}`` for every machine, through the
    :mod:`repro.jobs` executor (inline at ``jobs=1``, worker processes
    otherwise). The simulator is deterministic per seed, so every
    ``jobs`` value produces identical cells; a failed cell raises
    ``RuntimeError`` naming it."""
    _lifeguard(lifeguard_name)  # fail fast on unknown names
    machines = list(dict.fromkeys(
        (benchmark, threads) for benchmark in benchmarks
        for threads in thread_counts))
    job_list = [
        Job(f"{lifeguard_name}:{benchmark}:t{threads}:s{seed}",
            {"lifeguard": lifeguard_name, "benchmark": benchmark,
             "threads": threads, "scale": scale.value, "seed": seed,
             "runs": list(runs)})
        for benchmark, threads in machines
    ]
    values = cell_values(run_jobs(job_list, _cell, nworkers=jobs), "figure")
    return dict(zip(machines, values))


# ---------------------------------------------------------------------------
# Figure 6: execution time under the three schemes
# ---------------------------------------------------------------------------

_FIGURE6_RUNS = ("no_monitoring", "timesliced", "parallel")


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
        return [(benchmark, threads,
                 *(round(self.normalized(benchmark, threads, scheme), 3)
                   for scheme in _FIGURE6_RUNS),
                 round(self.speedup_over_timesliced(benchmark, threads), 2))
                for benchmark in self.cycles
                for threads in sorted(self.cycles[benchmark])]


def _figure6_result(lifeguard_name: str, scale: ScalePreset,
                    cells: Cells) -> Figure6Result:
    """Figure 6 from cells holding :data:`_FIGURE6_RUNS`, normalized to
    each benchmark's unmonitored run at its smallest thread count."""
    result = Figure6Result(lifeguard=lifeguard_name, scale=scale)
    for (benchmark, threads), cell in cells.items():
        result.cycles.setdefault(benchmark, {})[threads] = {
            run: cell[run]["cycles"] for run in _FIGURE6_RUNS}
    for benchmark, row in result.cycles.items():
        result.base[benchmark] = row[min(row)]["no_monitoring"]
    return result


def figure6(lifeguard_name: str,
            benchmarks: Iterable[str] = PAPER_BENCHMARKS,
            thread_counts: Iterable[int] = DEFAULT_THREADS,
            scale: ScalePreset = ScalePreset.TINY,
            seed: int = 1, jobs: int = 1) -> Figure6Result:
    """Regenerate Figure 6 for one lifeguard.

    For k application threads the NO MONITORING, TIMESLICED and PARALLEL
    schemes run on 2k, 2 and 2k cores respectively, exactly as the paper
    configures them; times are normalized to the application running
    sequentially without monitoring. ``jobs=N`` fans the
    benchmark × thread-count cells out over worker processes.
    """
    return _figure6_result(lifeguard_name, scale, _cells(
        lifeguard_name, benchmarks, thread_counts, _FIGURE6_RUNS, scale,
        seed, jobs))


# ---------------------------------------------------------------------------
# Figure 7: slowdown breakdown of PARALLEL monitoring
# ---------------------------------------------------------------------------

#: Figure 7's stacked components, each a share of the slowdown bar.
_FIGURE7_PARTS = ("useful", "wait_dependence", "wait_application")


@dataclass
class Figure7Result:
    lifeguard: str
    scale: ScalePreset
    #: benchmark -> threads -> dict with slowdown + stacked components.
    breakdown: Dict[str, Dict[int, Dict[str, float]]] = field(
        default_factory=dict)

    def rows(self) -> List[tuple]:
        return [(benchmark, threads,
                 *(round(cell[name], 3)
                   for name in ("slowdown",) + _FIGURE7_PARTS))
                for benchmark in self.breakdown
                for threads, cell in sorted(self.breakdown[benchmark].items())]


def figure7(lifeguard_name: str,
            benchmarks: Iterable[str] = PAPER_BENCHMARKS,
            thread_counts: Iterable[int] = DEFAULT_THREADS,
            scale: ScalePreset = ScalePreset.TINY,
            seed: int = 1, jobs: int = 1) -> Figure7Result:
    """Regenerate Figure 7: parallel-monitoring slowdown decomposed into
    useful work, waiting-for-dependence and waiting-for-application,
    normalized to the same-thread-count unmonitored run."""
    cells = _cells(lifeguard_name, benchmarks, thread_counts,
                   ("no_monitoring", "parallel"), scale, seed, jobs)
    result = Figure7Result(lifeguard=lifeguard_name, scale=scale)
    for (benchmark, threads), cell in cells.items():
        parallel = cell["parallel"]
        slowdown = parallel["cycles"] / cell["no_monitoring"]["cycles"]
        fractions = parallel["breakdown"]
        result.breakdown.setdefault(benchmark, {})[threads] = {
            "slowdown": slowdown,
            **{name: slowdown * fractions.get(name, 0.0)
               for name in _FIGURE7_PARTS}}
    return result


# ---------------------------------------------------------------------------
# Figure 8: accelerator and dependence-reduction ablations
# ---------------------------------------------------------------------------

#: Figure 8 bar -> the run it reads.
_FIGURE8_BARS = {
    "not_accelerated": "not_accelerated",
    "accelerated_limited": "accelerated_limited",
    "accelerated_aggressive": "parallel",
}


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


def _figure8_result(lifeguard_name: str, threads: int, scale: ScalePreset,
                    cells: Cells) -> Figure8Result:
    """Figure 8 from cells at ``threads``: each bar present in a cell as
    its slowdown over that cell's unmonitored run."""
    result = Figure8Result(lifeguard=lifeguard_name, threads=threads,
                           scale=scale)
    for (benchmark, _), cell in cells.items():
        base = cell["no_monitoring"]["cycles"]
        result.slowdowns[benchmark] = {
            bar: cell[run]["cycles"] / base
            for bar, run in _FIGURE8_BARS.items() if run in cell}
    return result


def figure8(lifeguard_name: str,
            benchmarks: Iterable[str] = PAPER_BENCHMARKS,
            threads: int = 8,
            scale: ScalePreset = ScalePreset.TINY,
            seed: int = 1, jobs: int = 1) -> Figure8Result:
    """Regenerate Figure 8 for one lifeguard at a fixed thread count.

    Variants: NOT ACCELERATED (aggressive per-block dependence
    reduction, no IT/IF/M-TLB), ACCELERATED with LIMITED reduction
    (per-core counters), and ACCELERATED with AGGRESSIVE reduction.
    As in the paper, the limited-reduction bar is TaintCheck's only.
    """
    runs = ["no_monitoring", "not_accelerated", "parallel"]
    if lifeguard_name == "taintcheck":
        runs.append("accelerated_limited")
    return _figure8_result(lifeguard_name, threads, scale, _cells(
        lifeguard_name, benchmarks, (threads,), runs, scale, seed, jobs))


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

    All three read the same Figure 6/8 cells: four runs per benchmark
    per lifeguard.
    """
    summary: Dict[str, object] = {"threads": threads, "scale": scale.value}
    ts_speedups: List[float] = []
    for lifeguard_name in ("taintcheck", "addrcheck"):
        cells = _cells(lifeguard_name, benchmarks, (threads,),
                       ("no_monitoring", "timesliced", "parallel",
                        "not_accelerated"), scale, seed)
        fig8 = _figure8_result(lifeguard_name, threads, scale, cells)
        speedups = [fig8.accelerator_speedup(b) for b in fig8.slowdowns]
        overheads = [cell["accelerated_aggressive"] - 1.0
                     for cell in fig8.slowdowns.values()]
        fig6 = _figure6_result(lifeguard_name, scale, cells)
        ts_speedups.extend(fig6.speedup_over_timesliced(b, threads)
                           for b in fig6.cycles)
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
    result = run_scheme(
        "parallel", build_workload("swaptions", threads, scale, seed),
        _lifeguard("addrcheck"), SimulationConfig.for_threads(threads))
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
    all_app = _cells("taintcheck", benchmarks, (cores,), ("no_monitoring",),
                     scale, seed)
    half = _cells("taintcheck", benchmarks, (cores // 2,), ("parallel",),
                  scale, seed)
    out: Dict[str, Dict[str, float]] = {}
    for (benchmark, _), cell in all_app.items():
        all_cycles = cell["no_monitoring"]["cycles"]
        half_cycles = half[benchmark, cores // 2]["parallel"]["cycles"]
        out[benchmark] = {
            "all_cores_unmonitored_cycles": all_cycles,
            "half_cores_monitored_cycles": half_cycles,
            "opportunity_cost": round(half_cycles / all_cycles, 3),
        }
    return out
