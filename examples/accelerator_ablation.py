#!/usr/bin/env python3
"""Accelerator and dependence-capture ablation (the Figure 8 study).

Runs one benchmark under parallel TaintCheck monitoring in three
configurations:

* NOT ACCELERATED — IT, IF and M-TLB all off (``accel=False``),
* ACCELERATED, limited dependence reduction — per-core counters instead
  of per-cache-block FDR tags,
* ACCELERATED, aggressive reduction — the full design,

plus the Section 7 extension: replacing ConflictAlert broadcasts for
small allocations with arc-inducing block touches. ACCELERATED
(``accel=True``, the default) turns on every accelerator the lifeguard
uses; Figure 8 compares exactly these two accelerator settings.

Usage::

    python examples/accelerator_ablation.py [benchmark] [threads]
"""

import sys

from repro import (
    AddrCheck,
    CaptureMode,
    SimulationConfig,
    TaintCheck,
    build_workload,
    run_no_monitoring,
    run_parallel_monitoring,
)


def main():
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "lu"
    threads = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    config = SimulationConfig.for_threads(threads)

    base = run_no_monitoring(build_workload(benchmark, threads), config)
    print(f"{benchmark}, {threads} threads; slowdowns vs no monitoring:\n")

    variants = [
        ("not accelerated", config, False),
        ("accelerated, limited reduction",
         config.replace(capture_mode=CaptureMode.PER_CORE), True),
        ("accelerated, aggressive reduction", config, True),
    ]
    slowdowns = {}
    for label, cfg, accel in variants:
        result = run_parallel_monitoring(
            build_workload(benchmark, threads), TaintCheck, cfg, accel=accel)
        slowdowns[label] = result.total_cycles / base.total_cycles
        print(f"  TaintCheck {label:<34}: {slowdowns[label]:5.2f}x  "
              f"(delivered={result.stats['events_delivered']:,})")

    speedup = (slowdowns["not accelerated"]
               / slowdowns["accelerated, aggressive reduction"])
    print(f"\n  -> parallel accelerators buy {speedup:.1f}x for TaintCheck "
          f"on {benchmark}.")

    print("\nConflictAlert vs touch-the-blocks (Section 7 extension), "
          "AddrCheck on swaptions:")
    swap_base = run_no_monitoring(build_workload("swaptions", threads),
                                  config)
    with_ca = run_parallel_monitoring(
        build_workload("swaptions", threads), AddrCheck, config)
    ablated = run_parallel_monitoring(
        build_workload("swaptions", threads), AddrCheck,
        config.replace(ca_touch_threshold_lines=1))
    print(f"  CA barriers everywhere       : "
          f"{with_ca.total_cycles / swap_base.total_cycles:5.2f}x "
          f"({with_ca.stats['ca_broadcasts']} broadcasts, "
          f"{with_ca.stats['ca_stalls']} barrier stalls)")
    print(f"  touches for <=1-block allocs : "
          f"{ablated.total_cycles / swap_base.total_cycles:5.2f}x "
          f"({ablated.stats['ca_broadcasts']} broadcasts, "
          f"{ablated.stats['ca_stalls']} barrier stalls)")
    print("\n(The paper suggests the touch alternative for *small* "
          "allocations only: touching\nevery block of a large allocation "
          "costs more than the barrier it avoids.)")


if __name__ == "__main__":
    main()
