"""Design-choice ablations called out in DESIGN.md (not paper figures).

* transitive reduction of dependence arcs (Section 5.1's RTR heritage):
  arcs recorded, log bytes, and end-to-end impact with it on/off;
* log-buffer sizing: the 64KB Table 1 buffer vs starved buffers, showing
  the backpressure path (application stalls on log-full);
* the delayed-advertising threshold (Section 4.2's optional threshold).
"""

import pytest

from repro import (
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_parallel_monitoring,
)
from repro.common.config import LogBufferConfig
from repro.eval import format_table

pytestmark = pytest.mark.slow


def test_transitive_reduction_ablation(publish, scale, seed):
    threads = 4
    config = SimulationConfig.for_threads(threads)

    def run(reduction):
        return run_parallel_monitoring(
            build_workload("racy_counters", threads, scale, seed), TaintCheck,
            config.replace(transitive_reduction=reduction))

    with_reduction = run(True)
    without = run(False)
    rows = [
        ("arcs recorded (reduced)", with_reduction.stats["arcs_recorded"]),
        ("arcs dropped as implied", with_reduction.stats["arcs_reduced"]),
        ("arcs recorded (no reduction)", without.stats["arcs_recorded"]),
        ("log bytes (reduced)", with_reduction.stats["log_bytes"]),
        ("log bytes (no reduction)", without.stats["log_bytes"]),
        ("cycles (reduced)", with_reduction.total_cycles),
        ("cycles (no reduction)", without.total_cycles),
    ]
    publish("ablation_transitive_reduction",
            "Transitive-reduction ablation (racy_counters, 4 threads)\n"
            + format_table(["metric", "value"], rows))
    assert (with_reduction.stats["arcs_recorded"]
            < without.stats["arcs_recorded"])
    assert with_reduction.stats["log_bytes"] < without.stats["log_bytes"]


def test_log_buffer_size_sweep(publish, scale, seed):
    threads = 2
    rows = []

    def run(size_bytes):
        config = SimulationConfig.for_threads(threads).replace(
            log_config=LogBufferConfig(size_bytes=size_bytes))
        return run_parallel_monitoring(
            build_workload("lu", threads, scale, seed), TaintCheck, config)

    results = {}
    for size in (256, 1024, 8 * 1024, 64 * 1024):
        results[size] = run(size)
    for size, result in results.items():
        app_stall = sum(buckets.get("wait_log", 0)
                        for buckets in result.app_buckets.values())
        rows.append((f"{size}B", result.total_cycles, app_stall,
                     result.stats["log_peak_bytes"]))
    publish("ablation_log_buffer",
            "Log-buffer sizing (lu, 2 threads)\n"
            + format_table(
                ["log size", "cycles", "app wait_log cycles", "peak bytes"],
                rows))
    # A starved buffer must cost wall-clock time via backpressure.
    assert results[256].total_cycles >= results[64 * 1024].total_cycles


def test_delayed_advertising_threshold_sweep(publish, scale, seed):
    threads = 4
    rows = []

    def run(threshold):
        config = SimulationConfig.for_threads(threads).replace(
            delayed_advertising_threshold=threshold)
        return run_parallel_monitoring(
            build_workload("radiosity", threads, scale, seed), TaintCheck,
            config)

    results = {t: run(t) for t in (0, 4, 16, 256)}
    for threshold, result in results.items():
        rows.append((threshold or "off", result.total_cycles,
                     result.stats["dependence_stalls"]))
    publish("ablation_advertising_threshold",
            "Delayed-advertising threshold (radiosity, 4 threads)\n"
            + format_table(["threshold", "cycles", "dependence stalls"],
                           rows))
    # An unbounded lag (threshold off) must not beat the tuned default on
    # this contention-heavy benchmark.
    assert results[16].total_cycles <= results[0].total_cycles * 1.05
