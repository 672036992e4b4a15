"""Scheme golden: the simulated work of every monitoring scheme.

``tests/data/scheme_runs.golden.json`` pins, for the unmonitored,
time-sliced and parallel schemes on tiny 4-thread TaintCheck runs of
swaptions and radiosity (plus radiosity under TSO), the total cycles,
instructions, every application and lifeguard time-bucket total, the
engine events popped, the log and arc counters, progress publishes,
stalls, cache hits and misses, IT absorptions and M-TLB lookups. A
change to the per-instruction path that moves one cycle, one engine
event or one cache hit in any scheme fails here.

Counters a scheme does not report (an unmonitored run has no log) are
pinned as ``null``.

Regenerate (only after an intentional change to simulated work) with::

    PYTHONPATH=src python tests/test_scheme_runs.py --regen
"""

import json
import pathlib

import pytest

from repro import (LIFEGUARDS, MemoryModel, ScalePreset, SimulationConfig,
                   build_workload, run_no_monitoring, run_parallel_monitoring,
                   run_timesliced_monitoring)

GOLDEN = pathlib.Path(__file__).parent / "data" / "scheme_runs.golden.json"

THREADS = 4
#: (cell name, scheme, benchmark, memory model); every run is tiny.
RUNS = tuple(
    (f"{scheme}-{benchmark}-sc", scheme, benchmark, MemoryModel.SC)
    for scheme in ("no_monitoring", "timesliced", "parallel")
    for benchmark in ("swaptions", "radiosity")
) + (("parallel-radiosity-tso", "parallel", "radiosity", MemoryModel.TSO),)
#: Counters read from ``result.stats``.
STATS = ("log_records", "log_bytes", "log_peak_bytes", "arcs_recorded",
         "arcs_reduced", "progress_publishes", "dependence_stalls",
         "ca_stalls", "it_absorbed", "mtlb_hits", "mtlb_misses")


def _bucket_totals(per_core) -> dict:
    totals = {}
    for buckets in per_core.values():
        for name, cycles in buckets.items():
            totals[name] = totals.get(name, 0) + cycles
    return totals


def measure(scheme: str, benchmark: str, memory_model) -> dict:
    workload = build_workload(benchmark, THREADS, ScalePreset.TINY, 1)
    config = SimulationConfig.for_threads(THREADS, memory_model=memory_model)
    if scheme == "no_monitoring":
        result = run_no_monitoring(workload, config)
    else:
        runner = (run_timesliced_monitoring if scheme == "timesliced"
                  else run_parallel_monitoring)
        result = runner(workload, LIFEGUARDS["taintcheck"], config)
    stats = result.stats
    coherence = stats["coherence"]
    cell = {
        "total_cycles": result.total_cycles,
        "instructions": result.instructions,
        "app_buckets": _bucket_totals(result.app_buckets),
        "lifeguard_buckets": _bucket_totals(result.lifeguard_buckets),
        "events_popped": stats["perf"]["events_popped"],
        "l1_hits": sum(coherence["l1_hits"]),
        "l1_misses": sum(coherence["l1_misses"]),
        "l2_misses": sum(coherence["l2_misses"]),
    }
    for counter in STATS:
        cell[counter] = stats.get(counter)
    return cell


def measure_all() -> dict:
    return {name: measure(scheme, benchmark, model)
            for name, scheme, benchmark, model in RUNS}


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.exists(), (
        f"missing fixture {GOLDEN} — regenerate with "
        f"`PYTHONPATH=src python tests/test_scheme_runs.py --regen`")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(name for name, _, _, _ in RUNS)


@pytest.mark.parametrize("name,scheme,program,model", RUNS,
                         ids=[run[0] for run in RUNS])
def test_run_matches_golden(golden, name, scheme, program, model):
    assert measure(scheme, program, model) == golden[name]


def test_golden_exercises_every_path(golden):
    # Each scheme reaches the paths it exists for: the monitored ones
    # log and publish progress, parallel runs capture arcs and stall on
    # them, and every run both hits and misses in the L1s.
    for name, scheme, _, _ in RUNS:
        cell = golden[name]
        assert cell["l1_hits"] and cell["l1_misses"]
        assert (cell["log_records"] is None) == (scheme == "no_monitoring")
        if scheme == "parallel":
            assert cell["arcs_recorded"] and cell["progress_publishes"]
            assert cell["lifeguard_buckets"]["wait_dependence"]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(measure_all(), indent=2,
                                     sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
