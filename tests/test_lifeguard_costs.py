"""Cost-model golden: the simulated work each lifeguard is charged.

``tests/data/lifeguard_costs.golden.json`` pins, for every lifeguard,
the total cycles, event-delivery counters, engine events popped and
shadow-chunk counters of four tiny 4-thread parallel-monitoring runs.
Together they cover lock/unlock events, malloc/free, the allocator's
own memory accesses, heap and non-heap accesses, Inheritance Tracking
and the Idempotent Filter, TSO versioned loads and a taint pipeline
(the Figure 3 remote-conflict pattern). A change to event dispatch
that moves a single cycle, delivers one event more or less, or
allocates one shadow chunk more fails here, even where no end-to-end
digest covers the lifeguard.

Regenerate (only after an intentional cost-model change) with::

    PYTHONPATH=src python tests/test_lifeguard_costs.py --regen
"""

import json
import pathlib

import pytest

from repro import (LIFEGUARDS, MemoryModel, ScalePreset, SimulationConfig,
                   build_workload, run_parallel_monitoring)

GOLDEN = pathlib.Path(__file__).parent / "data" / "lifeguard_costs.golden.json"

#: (cell name, benchmark, memory model); every run is tiny with 4 threads.
RUNS = (
    ("radiosity-sc", "radiosity", MemoryModel.SC),
    ("swaptions-sc", "swaptions", MemoryModel.SC),
    ("radiosity-tso", "radiosity", MemoryModel.TSO),
    ("taint_pipeline-sc", "taint_pipeline", MemoryModel.SC),
)
THREADS = 4
COUNTERS = ("events_delivered", "events_filtered", "versions_consumed")
#: Hot-path counters from ``stats["perf"]``: engine events served and
#: shadow-memory chunk churn in the lifeguard metadata map.
PERF_COUNTERS = ("events_popped", "shadow_chunks_peak", "shadow_chunk_allocs")


def measure(lifeguard: str, benchmark: str, memory_model) -> dict:
    workload = build_workload(benchmark, THREADS, ScalePreset.TINY, 1)
    config = SimulationConfig.for_threads(THREADS, memory_model=memory_model)
    result = run_parallel_monitoring(workload, LIFEGUARDS[lifeguard], config)
    cell = {"total_cycles": result.total_cycles}
    for counter in COUNTERS:
        cell[counter] = result.stats.get(counter, 0)
    for counter in PERF_COUNTERS:
        cell[counter] = result.stats["perf"][counter]
    return cell


def measure_all() -> dict:
    return {
        lifeguard: {name: measure(lifeguard, benchmark, model)
                    for name, benchmark, model in RUNS}
        for lifeguard in sorted(LIFEGUARDS)
    }


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.exists(), (
        f"missing fixture {GOLDEN} — regenerate with "
        f"`PYTHONPATH=src python tests/test_lifeguard_costs.py --regen`")
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_lifeguard(golden):
    assert sorted(golden) == sorted(LIFEGUARDS)
    for cells in golden.values():
        assert sorted(cells) == sorted(name for name, _, _ in RUNS)


@pytest.mark.parametrize("lifeguard", sorted(LIFEGUARDS))
def test_costs_match_golden(golden, lifeguard):
    fresh = {name: measure(lifeguard, benchmark, model)
             for name, benchmark, model in RUNS}
    assert fresh == golden[lifeguard]


def test_golden_exercises_versioned_loads(golden):
    # AddrCheck's address-range filter drops radiosity's versioned
    # loads (none hits the heap) before they consume a version.
    for lifeguard, cells in golden.items():
        consumed = cells["radiosity-tso"]["versions_consumed"]
        assert (consumed == 0) == (lifeguard == "addrcheck")
        assert cells["radiosity-sc"]["versions_consumed"] == 0


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(measure_all(), indent=2,
                                     sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
