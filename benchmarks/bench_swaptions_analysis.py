"""The Section 7 swaptions discussion, quantified.

The paper measures ~450K allocation/free pairs in swaptions' parallel
phase, an allocation-size CDF of 1/3 at most one cache block and 2/3 at
most 32 blocks (none above 128), and observes that every pair of
ConflictAlert messages becomes a lifeguard-side barrier. This bench
reproduces those measurements at the configured scale, plus the
touch-the-blocks alternative the paper sketches for small allocations.
"""

import pytest

from repro import AddrCheck, SimulationConfig, build_workload, \
    run_parallel_monitoring
from repro.eval import format_table, swaptions_analysis

pytestmark = pytest.mark.slow


def test_swaptions_allocation_analysis(publish, max_threads, scale, seed):
    analysis = swaptions_analysis(max_threads, scale, seed)
    publish("swaptions_analysis",
            "Section 7 swaptions analysis\n" + format_table(
                ["metric", "value"], list(analysis.items())))
    # The paper's size distribution: 1/3 <= 1 block, 2/3 <= 32 blocks,
    # none above 128 blocks (tolerances widen at tiny sample sizes).
    assert 0.15 <= analysis["fraction_at_most_1_block"] <= 0.55
    assert 0.45 <= analysis["fraction_at_most_32_blocks"] <= 0.85
    assert analysis["fraction_at_most_128_blocks"] == 1.0
    # Every malloc END and free BEGIN broadcasts.
    assert analysis["ca_broadcasts"] >= 2 * analysis["alloc_free_pairs"]


def test_swaptions_touch_ablation(publish, max_threads, scale, seed):
    """Extension: replace CAs with block touches for <=1-block allocs."""
    config = SimulationConfig.for_threads(max_threads)

    def run(threshold):
        return run_parallel_monitoring(
            build_workload("swaptions", max_threads, scale, seed), AddrCheck,
            config.replace(ca_touch_threshold_lines=threshold))

    with_ca = run(0)
    ablated = run(1)
    rows = [
        ("cycles (CA everywhere)", with_ca.total_cycles),
        ("cycles (touch small allocations)", ablated.total_cycles),
        ("CA broadcasts (CA everywhere)", with_ca.stats["ca_broadcasts"]),
        ("CA broadcasts (touch small)", ablated.stats["ca_broadcasts"]),
        ("barrier stalls (CA everywhere)", with_ca.stats["ca_stalls"]),
        ("barrier stalls (touch small)", ablated.stats["ca_stalls"]),
    ]
    publish("swaptions_touch_ablation",
            "Touch-the-blocks ablation (Section 7 extension)\n"
            + format_table(["metric", "value"], rows))
    assert ablated.stats["ca_broadcasts"] < with_ca.stats["ca_broadcasts"]
