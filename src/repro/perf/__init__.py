"""``repro.perf`` — the benchmark harness and perf-regression gate.

The north star says this reproduction should run "as fast as the
hardware allows"; this module makes that a measured, gated property
instead of a hope. It runs a fixed scenario suite under all three
schemes and reports, per scenario:

* **wall_seconds** — best-of-N wall clock (the only host-dependent
  number; see calibration below),
* **sim_cycles** — simulated cycles summed across runs,
* **instructions** — retired application instructions,
* **events_popped** — discrete events the engine's calendar queue
  served,
* **shadow_chunks_peak** / **shadow_chunk_allocs** — shadow-memory
  chunk residency and allocation churn in the lifeguard metadata map,

plus derived per-second rates. Everything except wall clock is fully
deterministic: the harness re-runs each scenario and *asserts* the
counters repeat bit-identically, so a nondeterminism bug fails the
benchmark before it poisons a comparison.

Scenarios:

* ``figure5`` — the paper's Figure 5 TSO-versioning walkthrough
  (2 threads, TaintCheck, all three schemes).
* ``diff_sweep`` — the cross-scheme differential sweep over seeded
  racy programs × all four lifeguards (the repo's end-to-end
  correctness workhorse; 5 seeds in the quick suite, 25 in full).
* ``taint_large`` — a larger synthetic taint pipeline (the Figure 3
  remote-conflict pattern) under all three schemes.
* ``archive`` — the record-once/replay-many trace archive
  (:mod:`repro.replay`): live-capture seeded runs, persist them, and
  gate the archive density as ``archive_bytes_per_kinst`` (encoded
  stream bytes per thousand retired instructions). The scenario also
  asserts the transitive-reduction arc encoding stays strictly
  smaller than the naive full-arc baseline.

**The gate** (``python -m repro.perf --gate``) compares a fresh run
against the committed ``BENCH_perf.json`` baseline: any deterministic
counter more than 10% worse fails; normalized wall clock (divided by a
spin-loop calibration score so a slower CI host doesn't flag) more than
50% worse fails. Regenerate the baseline after an intentional change
with ``REGEN_BASELINE=1 python -m repro.perf --gate``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.common.argtypes import positive_int
from repro.common.config import MemoryModel, ScalePreset, SimulationConfig
from repro.isa.registers import R0, R1
from repro.lifeguards import TaintCheck
from repro.platform import (
    run_no_monitoring,
    run_parallel_monitoring,
    run_timesliced_monitoring,
)
from repro.trace.diff import differential_sweep
from repro.workloads import CustomWorkload, build_workload

#: Bump when the JSON layout changes incompatibly.
SCHEMA = 1

#: Deterministic counters the gate compares (strict, repeatable).
#: ``archive_bytes_per_kinst`` is the trace-archive density — encoded
#: stream bytes per thousand retired instructions; only the ``archive``
#: scenario produces a nonzero value, and bigger means a fatter archive.
GATE_METRICS = ("sim_cycles", "instructions", "events_popped",
                "shadow_chunks_peak", "shadow_chunk_allocs",
                "archive_bytes_per_kinst")

#: Allowed relative regression on deterministic counters.
METRIC_TOLERANCE = 0.10

#: Allowed relative regression on calibration-normalized wall clock.
#: Looser than the counters: wall clock is the one host-noise-exposed
#: number, and the counters already catch any real work regression.
WALL_TOLERANCE = 0.50

#: Default committed baseline location (repo root).
BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_perf.json"

SUITES = ("quick", "full")


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python spin workload (best of ``rounds``).

    Used to normalize wall clock across hosts: a machine that runs this
    loop 2x slower is expected to run the scenarios ~2x slower too, and
    the gate compares ``wall_seconds / calibration_seconds`` ratios.
    """
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * 31) & 0xFFFFFFFF
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


# ---------------------------------------------------------------------------
# Scenario runners — each returns {scheme: {metric: int}}
# ---------------------------------------------------------------------------

def _metrics_of(result) -> Dict[str, int]:
    perf = result.stats.get("perf", {})
    return {
        "sim_cycles": result.total_cycles,
        "instructions": result.instructions,
        "events_popped": perf.get("events_popped", 0),
        "shadow_chunks_peak": perf.get("shadow_chunks_peak", 0),
        "shadow_chunk_allocs": perf.get("shadow_chunk_allocs", 0),
        "archive_bytes_per_kinst": 0,
    }


def _figure5_workload():
    a, b = 0x1000_0000, 0x1000_1000

    def thread0(api, workload):
        yield from api.loadi(R0)
        yield from api.store(a, R0, value=1)
        yield from api.load(R1, b)
        yield from api.store(a + 64, R1, value=0)

    def thread1(api, workload):
        yield from api.loadi(R0)
        yield from api.store(b, R0, value=1)
        yield from api.load(R1, a)
        yield from api.store(b + 64, R1, value=0)

    return CustomWorkload([thread0, thread1], name="figure5")


def _tainted_factory(costs=None, heap_range=None):
    lifeguard = TaintCheck(costs=costs, heap_range=heap_range)
    lifeguard.metadata.set_access(0x1000_0000, 4, 1)
    return lifeguard


def run_figure5() -> Dict[str, Dict[str, int]]:
    """Figure-5 TSO walkthrough under all three schemes."""
    config = SimulationConfig.for_threads(2, memory_model=MemoryModel.TSO)
    schemes = {}
    schemes["parallel"] = _metrics_of(run_parallel_monitoring(
        _figure5_workload(), _tainted_factory, config))
    schemes["timesliced"] = _metrics_of(run_timesliced_monitoring(
        _figure5_workload(), _tainted_factory, config))
    schemes["no_monitoring"] = _metrics_of(run_no_monitoring(
        _figure5_workload(), config))
    return schemes


def run_diff_sweep(seeds) -> Dict[str, Dict[str, int]]:
    """The cross-scheme differential sweep; every report must be ok."""
    reports = differential_sweep(seeds)
    bad = [r for r in reports if not r.ok]
    if bad:
        raise AssertionError(
            "differential sweep failed inside the perf harness:\n"
            + "\n".join(r.summary() for r in bad))
    schemes: Dict[str, Dict[str, int]] = {}
    for report in reports:
        for scheme, perf in report.perf.items():
            agg = schemes.setdefault(scheme,
                                     {metric: 0 for metric in GATE_METRICS})
            agg["sim_cycles"] += perf.get("sim_cycles", 0)
            agg["instructions"] += report.instructions.get(scheme, 0)
            agg["events_popped"] += perf.get("events_popped", 0)
            agg["shadow_chunks_peak"] = max(
                agg["shadow_chunks_peak"], perf.get("shadow_chunks_peak", 0))
            agg["shadow_chunk_allocs"] += perf.get("shadow_chunk_allocs", 0)
    return schemes


def run_taint_large(nthreads: int = 4,
                    scale: ScalePreset = ScalePreset.SMALL
                    ) -> Dict[str, Dict[str, int]]:
    """A larger synthetic taint workload under all three schemes."""
    config = SimulationConfig.for_threads(nthreads)
    factory = TaintCheck
    schemes = {}
    schemes["parallel"] = _metrics_of(run_parallel_monitoring(
        build_workload("taint_pipeline", nthreads, scale, 1),
        factory, config))
    schemes["timesliced"] = _metrics_of(run_timesliced_monitoring(
        build_workload("taint_pipeline", nthreads, scale, 1),
        factory, config))
    schemes["no_monitoring"] = _metrics_of(run_no_monitoring(
        build_workload("taint_pipeline", nthreads, scale, 1), config))
    return schemes


def run_archive(seeds) -> Dict[str, Dict[str, int]]:
    """Record-once trace archiving over seeded racy programs.

    Live-captures each seed under parallel TaintCheck monitoring,
    persists the captured order to a temporary ``.plog`` archive, and
    reports the archive density as ``archive_bytes_per_kinst`` (encoded
    stream bytes per thousand retired instructions, summed over the
    seed set). Raises if the transitive-reduction arc encoding is not
    strictly smaller than the naive full-arc baseline — that saving is
    the point of the ``last_recv`` codec, so losing it is a bug, not a
    slow day.
    """
    import shutil
    import tempfile

    from repro.replay import capture_archive

    metrics = {metric: 0 for metric in GATE_METRICS}
    stream_bytes = arc_bytes = naive_arc_bytes = 0
    tmp = tempfile.mkdtemp(prefix="repro-perf-archive-")
    try:
        for seed in seeds:
            result, manifest = capture_archive(
                os.path.join(tmp, f"seed{seed}.plog"), seed)
            live = _metrics_of(result)
            for metric in ("sim_cycles", "instructions", "events_popped",
                           "shadow_chunk_allocs"):
                metrics[metric] += live[metric]
            metrics["shadow_chunks_peak"] = max(
                metrics["shadow_chunks_peak"], live["shadow_chunks_peak"])
            totals = manifest["totals"]
            stream_bytes += totals["stream_bytes"]
            arc_bytes += totals["arc_bytes"]
            naive_arc_bytes += totals["naive_arc_bytes"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if arc_bytes >= naive_arc_bytes:
        raise AssertionError(
            f"transitive-reduction arc encoding ({arc_bytes} bytes) is "
            f"not smaller than the naive full-arc baseline "
            f"({naive_arc_bytes} bytes)")
    metrics["archive_bytes_per_kinst"] = round(
        1000 * stream_bytes / metrics["instructions"])
    return {"archive": metrics}


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------

def _suite_scenarios(suite: str) -> Dict[str, Callable]:
    if suite == "quick":
        return {
            "figure5": run_figure5,
            "diff_sweep": lambda: run_diff_sweep(range(5)),
            "taint_large": lambda: run_taint_large(
                nthreads=3, scale=ScalePreset.TINY),
            "archive": lambda: run_archive(range(5)),
        }
    if suite == "full":
        return {
            "figure5": run_figure5,
            "diff_sweep": lambda: run_diff_sweep(range(25)),
            "taint_large": lambda: run_taint_large(
                nthreads=4, scale=ScalePreset.SMALL),
            "archive": lambda: run_archive(range(25)),
        }
    raise ValueError(f"unknown suite {suite!r}; valid: {', '.join(SUITES)}")


def _totals(schemes: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    totals = {metric: 0 for metric in GATE_METRICS}
    for perf in schemes.values():
        for metric in GATE_METRICS:
            if metric == "shadow_chunks_peak":
                totals[metric] = max(totals[metric], perf.get(metric, 0))
            else:
                totals[metric] += perf.get(metric, 0)
    return totals


def run_scenario(fn: Callable, repeats: int = 3) -> Dict[str, object]:
    """Run one scenario ``repeats`` times; best wall clock, checked metrics.

    The deterministic counters must repeat bit-identically across
    repeats — a mismatch means hidden nondeterminism and raises.
    """
    best_wall = None
    schemes = None
    for _ in range(repeats):
        start = time.perf_counter()
        observed = fn()
        elapsed = time.perf_counter() - start
        best_wall = elapsed if best_wall is None else min(best_wall, elapsed)
        if schemes is None:
            schemes = observed
        elif observed != schemes:
            raise AssertionError(
                f"nondeterministic perf counters across repeats:\n"
                f"  first: {schemes}\n  later: {observed}")
    totals = _totals(schemes)
    rates = {
        "sim_cycles_per_sec": round(totals["sim_cycles"] / best_wall),
        "instructions_per_sec": round(totals["instructions"] / best_wall),
        "events_popped_per_sec": round(totals["events_popped"] / best_wall),
    }
    return {
        "wall_seconds": round(best_wall, 4),
        "repeats": repeats,
        "schemes": schemes,
        "metrics": totals,
        "rates": rates,
    }


def _scenario_job(payload: dict) -> dict:
    """``repro.jobs`` worker: one scenario cell of the suite matrix.

    The scenario callable is re-resolved from the suite table *inside*
    the worker (callables don't cross process boundaries); everything in
    the returned dict except ``wall_seconds`` is deterministic.
    """
    fn = _suite_scenarios(payload["suite"])[payload["name"]]
    return run_scenario(fn, repeats=payload["repeats"])


def run_suite(suite: str = "quick", repeats: int = 3, jobs: int = 1,
              checkpoint_path: Optional[str] = None, resume: bool = False,
              tracer=None) -> Dict[str, object]:
    """Run every scenario in ``suite``; returns the suite result dict.

    ``jobs=1`` (the default) is the historical in-process loop and keeps
    ``BENCH_perf.json`` bit-identical; ``jobs=N`` fans the scenario
    matrix out over the :mod:`repro.jobs` executor (wall-clock numbers
    are then measured inside each worker, so rates stay meaningful).
    """
    if jobs == 1 and checkpoint_path is None and not resume:
        scenarios = {}
        for name, fn in _suite_scenarios(suite).items():
            scenarios[name] = run_scenario(fn, repeats=repeats)
    else:
        from repro.jobs import Job, run_jobs

        names = list(_suite_scenarios(suite))
        results = run_jobs(
            [Job(f"{suite}:{name}",
                 {"suite": suite, "name": name, "repeats": repeats})
             for name in names],
            _scenario_job, nworkers=jobs, checkpoint_path=checkpoint_path,
            resume=resume, tracer=tracer)
        scenarios = {}
        for name, result in zip(names, results):
            if not result.ok:
                raise RuntimeError(
                    f"perf scenario {result.job_id} failed "
                    f"({result.status}, exit {result.exit_code}): "
                    f"{result.error}")
            scenarios[name] = result.value
    return {
        "scenarios": scenarios,
        "wall_seconds_total": round(
            sum(s["wall_seconds"] for s in scenarios.values()), 4),
    }


def build_report(suites=("quick",), repeats: int = 3, jobs: int = 1,
                 checkpoint_path: Optional[str] = None,
                 resume: bool = False) -> Dict[str, object]:
    """Full machine-readable report (the ``BENCH_perf.json`` payload)."""
    return {
        "schema": SCHEMA,
        "calibration_seconds": round(calibrate(), 4),
        "suites": {suite: run_suite(suite, repeats=repeats, jobs=jobs,
                                    checkpoint_path=checkpoint_path,
                                    resume=resume)
                   for suite in suites},
    }


# ---------------------------------------------------------------------------
# Baseline I/O and the gate
# ---------------------------------------------------------------------------

def load_baseline(path: Optional[Path] = None) -> Dict[str, object]:
    """Load a benchmark report, rejecting unknown schema versions."""
    path = Path(path or BASELINE_PATH)
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {report.get('schema')!r} != {SCHEMA}")
    return report


def write_report(report: Dict[str, object], path: Optional[Path] = None) -> Path:
    """Write a benchmark report as stable, diff-friendly JSON."""
    path = Path(path or BASELINE_PATH)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def gate(current: Dict[str, object], baseline: Dict[str, object],
         suite: str = "quick") -> List[str]:
    """Compare a fresh report against the baseline; returns failure lines.

    Deterministic counters fail beyond :data:`METRIC_TOLERANCE`;
    calibration-normalized wall clock fails beyond
    :data:`WALL_TOLERANCE`. Missing baseline scenarios are failures too
    (the baseline must be regenerated when scenarios are added).
    """
    failures: List[str] = []
    base_suite = baseline.get("suites", {}).get(suite)
    if base_suite is None:
        return [f"baseline has no {suite!r} suite — regenerate it "
                f"(REGEN_BASELINE=1 python -m repro.perf)"]
    cur_scenarios = current["suites"][suite]["scenarios"]
    base_scenarios = base_suite["scenarios"]

    base_calib = baseline.get("calibration_seconds") or 1.0
    cur_calib = current.get("calibration_seconds") or 1.0

    for name, cur in cur_scenarios.items():
        base = base_scenarios.get(name)
        if base is None:
            failures.append(f"{name}: not in baseline — regenerate it")
            continue
        for metric in GATE_METRICS:
            was = base["metrics"].get(metric, 0)
            now = cur["metrics"].get(metric, 0)
            if was == 0:
                # A zero baseline means the scenario doesn't exercise
                # this metric at all (e.g. archive_bytes_per_kinst
                # outside the archive scenario); any nonzero reading is
                # new work appearing, not a percentage regression, and
                # relative tolerance is meaningless against zero.
                if now != 0:
                    failures.append(
                        f"{name}: {metric} appeared on a zero baseline "
                        f"(0 -> {now})")
            elif now > was * (1 + METRIC_TOLERANCE):
                failures.append(
                    f"{name}: {metric} regressed {was} -> {now} "
                    f"(+{100 * (now - was) / was:.1f}% > "
                    f"{100 * METRIC_TOLERANCE:.0f}%)")
        was_wall = base["wall_seconds"] / base_calib
        now_wall = cur["wall_seconds"] / cur_calib
        if was_wall and now_wall > was_wall * (1 + WALL_TOLERANCE):
            failures.append(
                f"{name}: normalized wall clock regressed "
                f"{was_wall:.2f} -> {now_wall:.2f} "
                f"(+{100 * (now_wall - was_wall) / was_wall:.1f}% > "
                f"{100 * WALL_TOLERANCE:.0f}%)")
    return failures


def profile_scenario(fn: Callable, top: int = 25) -> str:
    """Run ``fn`` once under cProfile; return a top-N text report.

    The profiled run is separate from the timed repeats (profiling
    overhead would poison wall-clock numbers), but the deterministic
    counters of the profiled run are included so the hot-function list
    can be read against the work it actually did.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    schemes = fn()
    profiler.disable()
    totals = _totals(schemes)
    out = io.StringIO()
    out.write("  counters: " + " ".join(
        f"{metric}={totals[metric]:,}" for metric in GATE_METRICS
        if totals[metric]) + "\n")
    stats = pstats.Stats(profiler, stream=out)
    for order in ("cumulative", "tottime"):
        out.write(f"  top {top} by {order}:\n")
        stats.sort_stats(order).print_stats(top)
    return out.getvalue()


def profile_report(suites, top: int = 25) -> str:
    """Profile every scenario of every suite.

    Returns one text document (the ``BENCH_profile.txt`` payload) with a
    section per scenario — the artifact CI uploads so every perf PR can
    show *where* the cycles went.
    """
    sections = []
    for suite in suites:
        for name, fn in _suite_scenarios(suite).items():
            sections.append(f"== {suite} :: {name} ==\n"
                            + profile_scenario(fn, top=top))
    return "\n".join(sections)


def _normalized_speedup(base_scenario, cur_scenario,
                        base_calib: float, cur_calib: float) -> float:
    """Calibration-normalized wall-clock speedup vs the baseline (>1 is
    faster than the committed numbers)."""
    base_wall = base_scenario["wall_seconds"] / (base_calib or 1.0)
    cur_wall = cur_scenario["wall_seconds"] / (cur_calib or 1.0)
    if not cur_wall or not base_wall:
        return 1.0
    return base_wall / cur_wall


def format_suite(suite_name: str, suite: Dict[str, object],
                 baseline: Optional[Dict[str, object]] = None,
                 cur_calib: float = 1.0) -> str:
    """Human-readable rendering of one suite's results.

    With ``baseline`` (a full report dict), each scenario line also
    carries its calibration-normalized speedup vs the committed
    numbers, so BENCH history is self-describing in PR diffs.
    """
    base_scenarios = {}
    base_calib = 1.0
    if baseline is not None:
        base_suite = baseline.get("suites", {}).get(suite_name)
        if base_suite is not None:
            base_scenarios = base_suite["scenarios"]
            base_calib = baseline.get("calibration_seconds") or 1.0
    lines = [f"suite {suite_name}:"]
    for name, scenario in suite["scenarios"].items():
        metrics = scenario["metrics"]
        rates = scenario["rates"]
        speedup = ""
        base = base_scenarios.get(name)
        if base is not None:
            ratio = _normalized_speedup(base, scenario, base_calib, cur_calib)
            speedup = f" [{ratio:.2f}x vs baseline]"
        lines.append(
            f"  {name}: {scenario['wall_seconds']:.3f}s "
            f"(best of {scenario['repeats']}){speedup}")
        lines.append(
            f"    sim_cycles={metrics['sim_cycles']:,} "
            f"({rates['sim_cycles_per_sec']:,}/s) "
            f"instructions={metrics['instructions']:,} "
            f"({rates['instructions_per_sec']:,}/s)")
        lines.append(
            f"    events_popped={metrics['events_popped']:,} "
            f"({rates['events_popped_per_sec']:,}/s) "
            f"shadow_chunks_peak={metrics['shadow_chunks_peak']} "
            f"shadow_chunk_allocs={metrics['shadow_chunk_allocs']}")
        if metrics.get("archive_bytes_per_kinst"):
            lines.append(
                f"    archive_bytes_per_kinst="
                f"{metrics['archive_bytes_per_kinst']} "
                f"({metrics['archive_bytes_per_kinst'] / 1000:.2f} "
                f"bytes/instruction)")
    lines.append(f"  total wall: {suite['wall_seconds_total']:.3f}s")
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point; see ``python -m repro.perf --help``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.perf",
        description="ParaLog reproduction benchmark harness / perf gate")
    parser.add_argument("--suite", choices=SUITES + ("all",), default="quick",
                        help="scenario suite to run (default quick)")
    parser.add_argument("--gate", action="store_true",
                        help="compare against the committed baseline and "
                             "exit 1 on regression")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help=f"baseline JSON (default {BASELINE_PATH})")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="where to write the fresh report "
                             "(default: the baseline path when not gating)")
    parser.add_argument("--repeats", type=positive_int, default=3,
                        help="wall-clock repetitions per scenario "
                             "(best-of; default 3)")
    parser.add_argument("--jobs", type=positive_int, default=1, metavar="N",
                        help="worker processes for the scenario matrix "
                             "(default 1: serial, bit-identical output)")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="JSONL checkpoint for interrupted-run resume")
    parser.add_argument("--resume", action="store_true",
                        help="skip scenarios already in --checkpoint")
    parser.add_argument("--profile", action="store_true",
                        help="additionally run each scenario once under "
                             "cProfile and write a per-scenario hot-function "
                             "report next to the bench report")
    parser.add_argument("--profile-top", type=int, default=25, metavar="N",
                        help="functions per profile section (default 25)")
    args = parser.parse_args(argv)

    suites = SUITES if args.suite == "all" else (args.suite,)
    baseline_path = Path(args.baseline) if args.baseline else BASELINE_PATH
    regen = os.environ.get("REGEN_BASELINE") == "1"

    report = build_report(suites=suites, repeats=args.repeats,
                          jobs=args.jobs, checkpoint_path=args.checkpoint,
                          resume=args.resume)
    try:
        committed = load_baseline(baseline_path)
    except (FileNotFoundError, ValueError, json.JSONDecodeError):
        committed = None
    for suite in suites:
        print(format_suite(suite, report["suites"][suite], baseline=committed,
                           cur_calib=report["calibration_seconds"]))
    print(f"calibration: {report['calibration_seconds']:.4f}s")

    if args.profile:
        profile_path = (Path(args.output) if args.output
                        else baseline_path).with_name("BENCH_profile.txt")
        profile_path.write_text(
            profile_report(suites, top=args.profile_top))
        print(f"wrote profile report to {profile_path}")

    if args.gate and not regen:
        try:
            baseline = load_baseline(baseline_path)
        except FileNotFoundError:
            print(f"error: no baseline at {baseline_path}; run "
                  f"REGEN_BASELINE=1 python -m repro.perf first")
            return 2
        failures: List[str] = []
        for suite in suites:
            failures.extend(gate(report, baseline, suite=suite))
        if args.output:
            write_report(report, Path(args.output))
        if failures:
            print("\nPERF GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print("\nperf gate: OK (within tolerance of baseline)")
        return 0

    # Measurement / regeneration mode: merge into the baseline file so
    # regenerating one suite keeps the other's numbers.
    output = Path(args.output) if args.output else baseline_path
    merged = report
    if output.exists():
        try:
            existing = load_baseline(output)
        except (ValueError, json.JSONDecodeError):
            existing = None
        if existing is not None:
            existing["suites"].update(report["suites"])
            existing["calibration_seconds"] = report["calibration_seconds"]
            merged = existing
    path = write_report(merged, output)
    print(f"\nwrote {path}")
    return 0
