"""End-to-end benchmark of the ParaLog reproduction; see README.md.

One workload, measured in this process::

    python3 benchmarks/e2e/run.py --workload fig-cells --seed 1 \\
        --seconds 8 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1`` (a separate cProfile pass). Without ``--workload`` all
four workloads run, each in a fresh worker process, one at a time::

    python3 benchmarks/e2e/run.py --seed 1 [--trace 1] [--output PATH]

Exit codes: 0 every op correct; 1 some op failed, or no ``src/repro``
next to the benchmark; 2 bad arguments, or a worker wrote no report.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (imports count toward set-up time)
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    # Never fall back to some other installed copy of the package.
    raise SystemExit(f"run.py: no repro package under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

from repro import SimulationError  # noqa: E402
from e2e_layers import LAYERS, attribute  # noqa: E402
from e2e_workloads import WORKLOADS, Outcome, output_hash  # noqa: E402

#: Set-up (inputs plus one warm-up op) repeats per untraced run;
#: ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: The host-speed reference: one fixed pure-Python loop, timed between
#: ops. On a shared machine other tenants slow every process alike, by
#: up to 40% for minutes at a time, and the loop slows with the
#: simulator (README, "Host speed"). Every reported time is rescaled to
#: the loop's duration on the host the bounds were set on.
REFERENCE_SPIN_S = 0.0234
#: Seconds of ops between two reference measurements.
REFERENCE_EVERY_S = 0.5

#: How per-op counters combine over a pass; anything else is summed.
AGGREGATE = {"capture.log_peak_bytes": max,
             "lifeguards.shadow_chunks_peak": max,
             "enforce.median_stall_cycles": statistics.median}

#: Counter ratios: metric -> (numerator, denominator counters).
RATIOS = {"memory.l1_hit_ratio": ("memory.l1_hits", "memory.l1_misses"),
          "accel.if_hit_ratio": ("accel.if_hits", "accel.if_misses"),
          "accel.mtlb_hit_ratio": ("accel.mtlb_hits", "accel.mtlb_misses")}


@dataclass
class Sample:
    """One executed op: its host time and what the benchmark keeps."""

    op: tuple
    #: Host seconds, rescaled to the reference host by :func:`measure`.
    seconds: float
    kinst: float
    digest: str
    counters: Dict[str, float]
    failure: Optional[str]


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_scale() -> float:
    """The reference loop's nominal duration over its duration now:
    below 1 while the host runs slow."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * 31) & 0xFFFFFFFF
    return REFERENCE_SPIN_S / (time.perf_counter() - start)


def execute(workload, op, profiler=None) -> Sample:
    """Run one op. A ``SimulationError`` fails the op; it is not fatal."""
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    try:
        raw = workload.call(op)
    except SimulationError as exc:
        raw = exc
    seconds = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    if isinstance(raw, SimulationError):
        outcome = Outcome(0.0, {"error": type(raw).__name__},
                          failure=f"{op}: {type(raw).__name__}: {raw}")
    else:
        outcome = workload.check(op, raw)
    return Sample(op, seconds, outcome.kinst, output_hash(outcome.output),
                  outcome.counters, outcome.failure)


def measure(workload, seconds: float, profiler=None):
    """Whole passes over the ops until ``seconds`` have elapsed, at least
    one. Whole passes keep the op mix, and so every metric, independent
    of how fast the host is. Each op's time is rescaled by the reference
    measured around it; returns ``(samples, passes, scales)``."""
    samples: List[Sample] = []
    pending: List[Sample] = []
    scales: List[float] = [host_scale()]

    def rescale():
        scales.append(host_scale())
        scale = (scales[-2] + scales[-1]) / 2
        for sample in pending:
            sample.seconds *= scale
        samples.extend(pending)
        pending.clear()

    passes = 0
    start = mark = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in workload.ops:
            pending.append(execute(workload, op, profiler))
            if time.perf_counter() - mark >= REFERENCE_EVERY_S:
                rescale()
                mark = time.perf_counter()
        passes += 1
    if pending:
        rescale()
    return samples, passes, scales


def aggregate(samples: List[Sample], extra: Dict[str, float]) -> dict:
    per_name: Dict[str, list] = {}
    for sample in samples:
        for name, value in sample.counters.items():
            per_name.setdefault(name, []).append(value)
    totals = {name: AGGREGATE.get(name, sum)(values)
              for name, values in per_name.items()}
    totals.update(extra)
    for name, (hits, misses) in RATIOS.items():
        lookups = totals.get(hits, 0) + totals.get(misses, 0)
        totals[name] = totals.get(hits, 0) / lookups if lookups else 0.0
    return totals


def layer_values(profiler, profiled: List[Sample], untraced_pass_s: float
                 ) -> Dict[str, float]:
    """Per-layer self time and calls in, from one profiled pass."""
    self_s, calls_in, other = attribute(pstats.Stats(profiler).stats,
                                        str(SRC / "repro"))
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.calls_in"] = calls_in.get(layer, 0)
    total = sum(self_s.values()) + other
    values["other.self_s"] = other
    values["profile.coverage"] = 1 - other / total if total else 0.0
    values["profile.overhead"] = (sum(s.seconds for s in profiled)
                                  / untraced_pass_s)
    return values


def run_workload(workload, seconds: float, workdir: str, trace: bool = False,
                 expected_digest: Optional[str] = None,
                 import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; returns the detail report
    (``correct``, ``attempted``, ``failed``, ``metrics`` and more)."""
    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    samples_seen: List[Sample] = []
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        setup_output = workload.setup(workdir)
        samples_seen.append(execute(workload, workload.ops[0]))
        setup_times.append((import_s + time.perf_counter() - start)
                           * host_scale())
    timed, passes, scales = measure(workload, seconds)
    first_pass = timed[:len(workload.ops)]
    profiler = cProfile.Profile() if trace else None
    profiled = measure(workload, 0, profiler)[0] if trace else []

    # Every op must reproduce its first run's outputs exactly (warm-ups
    # included), and pass its own check.
    reference: Dict[tuple, str] = {}
    failures = []
    failed = 0
    for index, sample in enumerate(samples_seen + timed + profiled):
        problem = sample.failure
        if reference.setdefault(sample.op, sample.digest) != sample.digest:
            problem = f"{sample.op}: outputs differ from an earlier run"
        if problem:
            failures.append(problem)
            if index >= len(samples_seen):  # a timed op, not a warm-up
                failed += 1
    attempted = len(timed) + len(profiled)
    digest = hashlib.sha256(output_hash(setup_output).encode())
    for sample in first_pass:
        digest.update(sample.digest.encode())
    digest = digest.hexdigest()
    if expected_digest is not None and digest != expected_digest:
        failures.append(f"sim digest {digest} != expected {expected_digest}")
        failed = attempted

    op_s = [sample.seconds for sample in timed]
    if trace:
        values = aggregate(first_pass, workload.setup_counters)
        values.update(layer_values(profiler, profiled, sum(op_s) / passes))
        events = values.get("cpu.engine.events", 0)
        values["cpu.engine.ns_per_event"] = (
            values["cpu.engine.self_s"] / events * 1e9 if events else 0.0)
    else:
        # Per-op cost is normalized by the op's size: seeds change input
        # sizes (barnes halves on some), so raw op latencies of a mix of
        # unequal ops would jump between ops from seed to seed.
        ns_per_inst = [sample.seconds / sample.kinst * 1e6
                       for sample in timed if sample.kinst] or [0.0]
        values = {
            "sim_kips": sum(sample.kinst for sample in timed) / sum(op_s),
            "op_ns_per_inst_p50": statistics.median(ns_per_inst),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    names = {metric["name"] for metric in declared}
    undeclared = sorted(set(values) - names)
    if undeclared:
        raise ValueError(f"metrics missing from BENCHMARK.json: {undeclared}")
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": values.get(metric["name"], 0),
                                     "unit": metric["unit"]}
                    for metric in declared},
        "passes": passes,
        # Median reference speed over the timed phase: 0.8 means the host
        # ran 20% slow and every reported time was scaled by 0.8.
        "host_speed": statistics.median(scales),
        "digest": digest,
        "expected_digest": expected_digest,
        "failures": failures[:10],
        "sim": workload.summary(),
    }
    if trace:
        report["layers"] = {
            layer: values[f"{layer}.self_s"] for layer in LAYERS}
        report["layers"]["other"] = values["other.self_s"]
    return report


def print_report(name: str, seed: int, report: dict) -> None:
    status = ("no recorded digest" if report["expected_digest"] is None
              else "digest matches" if report["digest"]
              == report["expected_digest"] else "DIGEST MISMATCH")
    print(f"{name} seed={seed}: {report['attempted']} ops in "
          f"{report['passes']} pass(es), {report['failed']} failed, "
          f"sim digest {report['digest'][:16]} ({status}), "
          f"host speed {report['host_speed']:.3f}")
    for failure in report["failures"]:
        print(f"  FAIL {failure}")
    for metric, value in report["sim"].items():
        print(f"  {metric:<36} {value:>14.4f} (simulated)")
    layers = report.get("layers")
    if layers:
        total = sum(layers.values())
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            share = seconds / total if total else 0.0
            print(f"  {layer + ' self time':<36} {seconds:>14.4f} s "
                  f"{share:7.1%}")
    for metric, entry in report["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")


def work_root() -> Path:
    """Scratch space inside the checkout (archives, traces, reports)."""
    path = ROOT / ".bench_build" / "e2e"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_worker(args, import_s: float) -> int:
    digests = json.loads((HERE / "digests.json").read_text())
    expected = digests.get(args.workload, {}).get(str(args.seed))
    workload = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(dir=work_root()) as workdir:
        report = run_workload(workload, args.seconds, workdir,
                              trace=bool(args.trace),
                              expected_digest=expected, import_s=import_s)
    print_report(args.workload, args.seed, report)
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": {args.workload: report}}, indent=2) + "\n")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh worker process, one at a time."""
    combined = {"seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=work_root()) as scratch:
        for name in WORKLOADS:
            output = os.path.join(scratch, f"{name}.json")
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--output", output], check=False)
            if not os.path.exists(output):
                print(f"run.py: worker for {name} wrote no report",
                      file=sys.stderr)
                return 2
            with open(output) as handle:
                combined["workloads"].update(json.load(handle)["workloads"])
    if args.output:
        Path(args.output).write_text(json.dumps(combined, indent=2) + "\n")
    return 0 if all(report["correct"]
                    for report in combined["workloads"].values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the ParaLog reproduction.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process "
                             "(default: all four, one worker each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"],
                        help="minimum measured time; whole passes run "
                             "until it has elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a "
                             "profiled pass")
    parser.add_argument("--output", help="write the detail report (JSON)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_worker(args, time.perf_counter() - _START)


if __name__ == "__main__":
    sys.exit(main())
