"""The benchmark's four workloads, built only on the public ``repro`` API.

A workload turns a seed into inputs (:meth:`setup`) and a fixed list of
ops, one *pass*. :meth:`call` is the timed part of an op and makes
public API calls only, so a profiled pass charges nearly all of its
time to the simulator's layers. :meth:`check` runs untimed: it applies
the op's own correctness check and returns an :class:`Outcome`.

The README lists the public API this module may import; the self-tests
hold it to that list. Nothing here passes ``backend=``, ``jobs=`` or
``executor=``: the benchmark must run unchanged on commits that remove
those options.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import MemoryModel, ScalePreset, SimulationConfig
from repro.lifeguards import LIFEGUARDS
from repro.platform import (
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.replay import (
    TraceReader,
    canonical_json,
    replay_archive,
    replay_payload,
    write_archive,
)
from repro.trace import TraceWriter, read_trace, trace_hash
from repro.trace.diff import differential_check, lifeguard_factory
from repro.workloads import PAPER_BENCHMARKS, build_workload

SCHEMES = ("no_monitoring", "timesliced", "parallel")


@dataclass
class Outcome:
    """What one op produced, as the benchmark sees it."""

    #: Thousand application instructions simulated or replayed.
    kinst: float
    #: JSON-able simulated outputs; the sim digest covers them.
    output: object
    #: Exact per-layer counters, keyed by per-layer metric name.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Why the op's own check failed, or None.
    failure: Optional[str] = None


def output_hash(output) -> str:
    """sha256 of an output's canonical JSON."""
    return hashlib.sha256(canonical_json(output).encode()).hexdigest()


def _bucket_totals(buckets: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for per_core in buckets.values():
        for name, cycles in per_core.items():
            totals[name] = totals.get(name, 0) + cycles
    return totals


def run_output(result) -> dict:
    """A ``RunResult``'s simulated outputs: everything but host-side perf."""
    return {
        "scheme": result.scheme,
        "workload": result.workload,
        "cycles": result.total_cycles,
        "instructions": result.instructions,
        "app_buckets": result.app_buckets,
        "lifeguard_buckets": result.lifeguard_buckets,
        "violations": [(v.kind, v.tid, v.rid, v.detail)
                       for v in result.violations],
        "stats": {key: value for key, value in result.stats.items()
                  if key != "perf"},
    }


def run_counters(result) -> Dict[str, float]:
    """Per-layer counters of one ``RunResult``, from its public stats."""
    stats = result.stats
    perf = stats.get("perf", {})
    coherence = stats.get("coherence", {})
    app = _bucket_totals(result.app_buckets)
    lifeguard = _bucket_totals(result.lifeguard_buckets)
    counters = {
        "cpu.engine.events": perf.get("events_popped", 0),
        "cpu.cores.instructions": result.instructions,
        "cpu.cores.execute_cycles": app.get("execute", 0),
        "cpu.cores.wait_log_cycles": app.get("wait_log", 0),
        "cpu.cores.wait_containment_cycles": app.get("wait_containment", 0),
        "cpu.lifeguard_core.records": stats.get("records_processed", 0),
        "cpu.lifeguard_core.useful_cycles": lifeguard.get("useful", 0),
        "cpu.lifeguard_core.wait_dependence_cycles":
            lifeguard.get("wait_dependence", 0),
        "cpu.lifeguard_core.wait_application_cycles":
            lifeguard.get("wait_application", 0),
        "memory.l1_hits": sum(coherence.get("l1_hits", ())),
        "memory.l1_misses": sum(coherence.get("l1_misses", ())),
        "memory.l2_misses": sum(coherence.get("l2_misses", ())),
        "lifeguards.shadow_chunk_allocs": perf.get("shadow_chunk_allocs", 0),
        "lifeguards.shadow_chunks_peak": perf.get("shadow_chunks_peak", 0),
        "lifeguards.violations": len(result.violations),
    }
    for name in ("events_delivered", "events_filtered"):
        counters[f"cpu.lifeguard_core.{name}"] = stats.get(name, 0)
    for name in ("arcs_recorded", "arcs_reduced", "log_records", "log_bytes",
                 "log_peak_bytes"):
        counters[f"capture.{name}"] = stats.get(name, 0)
    for name in ("progress_publishes", "dependence_stalls", "ca_stalls",
                 "ca_broadcasts", "versions_produced"):
        counters[f"enforce.{name}"] = stats.get(name, 0)
    if "median_stall_cycles" in stats:
        counters["enforce.median_stall_cycles"] = stats["median_stall_cycles"]
    for name in ("it_absorbed", "if_hits", "if_misses", "mtlb_hits",
                 "mtlb_misses"):
        counters[f"accel.{name}"] = stats.get(name, 0)
    return counters


class Workload:
    """One benchmark workload: inputs from a seed, a fixed pass of ops."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        #: One pass, in order; filled by :meth:`setup`.
        self.ops: List[tuple] = []
        #: Per-layer values measured in setup rather than in an op.
        self.setup_counters: Dict[str, float] = {}

    def setup(self, workdir: str) -> object:
        """Build the inputs; returns JSON-able outputs for the digest."""
        raise NotImplementedError

    def call(self, op):
        """The timed part of ``op``: public API calls only."""
        raise NotImplementedError

    def check(self, op, raw) -> Outcome:
        """The untimed part of ``op``: its own check and its outputs."""
        raise NotImplementedError

    def summary(self) -> dict:
        """Simulated figures over the ops checked so far, for the report
        only (the end-to-end metrics are host measurements)."""
        return {}


class FigCells(Workload):
    """Figure 6/7 cells: every benchmark under every scheme."""

    name = "fig-cells"

    def __init__(self, seed: int, benchmarks=PAPER_BENCHMARKS,
                 scale: ScalePreset = ScalePreset.SMALL, threads: int = 4):
        super().__init__(seed)
        self.benchmarks, self.scale, self.threads = benchmarks, scale, threads

    def setup(self, workdir):
        self.config = SimulationConfig.for_threads(self.threads)
        self.ops = [(bench, scheme) for bench in self.benchmarks
                    for scheme in SCHEMES]
        self.cycles = {}
        return {}

    def call(self, op):
        bench, scheme = op
        workload = build_workload(bench, self.threads, self.scale, self.seed)
        if scheme == "no_monitoring":
            return run_no_monitoring(workload, self.config)
        runner = (run_timesliced_monitoring if scheme == "timesliced"
                  else run_parallel_monitoring)
        return runner(workload, LIFEGUARDS["taintcheck"], self.config)

    def check(self, op, result):
        self.cycles[op] = result.total_cycles
        return Outcome(result.instructions / 1e3, run_output(result),
                       run_counters(result))

    def summary(self):
        def geomean(numerator, denominator):
            product = 1.0
            for bench in self.benchmarks:
                product *= (self.cycles[(bench, numerator)]
                            / self.cycles[(bench, denominator)])
            return product ** (1 / len(self.benchmarks))

        if len(self.cycles) < len(self.ops):
            return {}
        return {"sim_slowdown_geomean": geomean("parallel", "no_monitoring"),
                "ts_speedup_geomean": geomean("timesliced", "parallel")}


class DiffSweep(Workload):
    """The cross-scheme differential check over seeded racy programs.

    MemCheck is left out: on about one program in 250 its live register
    metadata differs from the sequential replay oracle's (program 20168
    is one), a simulator bug this benchmark must not count against
    every later change.
    """

    name = "diff-sweep"
    LIFEGUARDS = ("addrcheck", "lockset", "taintcheck")

    def __init__(self, seed: int, programs: int = 320):
        super().__init__(seed)
        self.programs = programs

    def setup(self, workdir):
        base = self.seed * 10_000
        self.ops = [(base + index, lifeguard)
                    for index in range(self.programs)
                    for lifeguard in self.LIFEGUARDS]
        return {}

    def call(self, op):
        return differential_check(op[0], op[1])

    def check(self, op, report):
        perf = report.perf
        output = {
            "verdicts": report.verdicts,
            "instructions": report.instructions,
            "sim_cycles": {scheme: counters["sim_cycles"]
                           for scheme, counters in perf.items()},
            "failures": report.failures,
        }
        counters = {
            "trace.diff.checks": 1,
            "cpu.engine.events": sum(counters.get("events_popped", 0)
                                     for counters in perf.values()),
            "cpu.cores.instructions": sum(report.instructions.values()),
            "lifeguards.shadow_chunk_allocs": sum(
                counters.get("shadow_chunk_allocs", 0)
                for counters in perf.values()),
            "lifeguards.shadow_chunks_peak": max(
                counters.get("shadow_chunks_peak", 0)
                for counters in perf.values()),
        }
        return Outcome(sum(report.instructions.values()) / 1e3, output,
                       counters,
                       None if report.ok else report.summary())


def _canonical(value) -> str:
    """Canonical JSON after a JSON round trip, so int keys compare equal
    to the string keys of an already-serialized payload."""
    return canonical_json(json.loads(canonical_json(value)))


class ReplayFanout(Workload):
    """Record once, replay many: archives replayed under every lifeguard.

    Archives are captured at ``tiny`` scale so that set-up, which
    captures and encodes every archive, can be repeated several times
    within one run.
    """

    name = "replay-fanout"

    def __init__(self, seed: int, benchmarks=PAPER_BENCHMARKS,
                 scale: ScalePreset = ScalePreset.TINY, threads: int = 4):
        super().__init__(seed)
        self.benchmarks, self.scale, self.threads = benchmarks, scale, threads

    def setup(self, workdir):
        config = SimulationConfig.for_threads(self.threads)
        factory = lifeguard_factory("taintcheck")
        self.archives = {}
        outputs = {}
        encode_s = 0.0
        archive_bytes = 0
        for bench in self.benchmarks:
            result = run_parallel_monitoring(
                build_workload(bench, self.threads, self.scale, self.seed),
                factory, config, keep_trace=True)
            path = os.path.join(workdir, f"{bench}.plog")
            start = time.perf_counter()
            write_archive(path, result.trace, nthreads=self.threads,
                          config=config,
                          meta={"workload": bench, "seed": self.seed,
                                "instructions": result.instructions})
            encode_s += time.perf_counter() - start
            with open(path, "rb") as handle:
                blob = handle.read()
            archive_bytes += len(blob)
            live = _canonical(result.lifeguard_obj.metadata_fingerprint())
            self.archives[bench] = (path, result.instructions / 1e3, live)
            outputs[bench] = {"archive_sha256": hashlib.sha256(blob).hexdigest(),
                              "live": run_output(result)}
        self.setup_counters = {"capture.encode_s": encode_s,
                               "capture.archive_bytes": archive_bytes}
        self.ops = [(bench,) for bench in self.benchmarks]
        return outputs

    def call(self, op):
        """Open the archive afresh, decode it once, and replay it under
        every lifeguard from that one reader."""
        reader = TraceReader(self.archives[op[0]][0])
        start = time.perf_counter()
        reader.all_records()
        decode_s = time.perf_counter() - start
        results = {lifeguard: replay_archive(reader, lifeguard)
                   for lifeguard in sorted(LIFEGUARDS)}
        return results, decode_s

    def check(self, op, raw):
        results, decode_s = raw
        payloads = {lifeguard: replay_payload(result)
                    for lifeguard, result in results.items()}
        _path, kinst, live = self.archives[op[0]]
        failure = None
        if _canonical(payloads["taintcheck"]["fingerprint"]) != live:
            failure = (f"{op[0]}: replayed TaintCheck metadata differs from "
                       f"the live run's")
        counters = {
            "replay.records": sum(p["records"] for p in payloads.values()),
            "replay.decode_s": decode_s,
            "lifeguards.violations": sum(len(p["violations"])
                                         for p in payloads.values()),
        }
        return Outcome(kinst * len(payloads), payloads, counters, failure)


class ServeTraced(Workload):
    """A ``repro serve`` run: flight recorder on, then read back.

    ``tiny`` is the scale ``repro serve`` defaults to. The benchmarks are
    the ones whose 4-thread TSO runs finished on all of 40 seeds: lu and
    ocean deadlock under TSO on every seed, swaptions, fmm and barnes on
    some, a simulator bug outside this benchmark.
    """

    name = "serve-traced"

    def __init__(self, seed: int,
                 benchmarks=("blackscholes", "fluidanimate", "radiosity"),
                 scale: ScalePreset = ScalePreset.TINY, threads: int = 4):
        super().__init__(seed)
        self.benchmarks, self.scale, self.threads = benchmarks, scale, threads

    def setup(self, workdir):
        self.trace_path = os.path.join(workdir, "run.jsonl")
        self.ops = [(bench, model) for bench in self.benchmarks
                    for model in (MemoryModel.SC, MemoryModel.TSO)]
        return {}

    def call(self, op):
        bench, model = op
        config = SimulationConfig.for_threads(self.threads,
                                              memory_model=model)
        workload = build_workload(bench, self.threads, self.scale, self.seed)
        tracer = TraceWriter.to_path(self.trace_path)
        try:
            result = run_parallel_monitoring(
                workload, LIFEGUARDS["taintcheck"], config, tracer=tracer)
        finally:
            tracer.close()
        start = time.perf_counter()
        events = read_trace(self.trace_path)
        digest = trace_hash(events)
        readback_s = time.perf_counter() - start
        return result, len(events), digest, readback_s

    def check(self, op, raw):
        result, events, digest, readback_s = raw
        output = dict(run_output(result), trace_hash=digest,
                      trace_events=events)
        counters = dict(run_counters(result), **{
            "trace.events": events,
            "trace.bytes": os.path.getsize(self.trace_path),
            "trace.readback_s": readback_s,
        })
        return Outcome(result.instructions / 1e3, output, counters)


WORKLOADS = {cls.name: cls
             for cls in (FigCells, DiffSweep, ReplayFanout, ServeTraced)}
