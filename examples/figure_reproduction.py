#!/usr/bin/env python3
"""Regenerate the paper's evaluation figures at a chosen scale.

This drives the same harness the benchmark suite uses, printing the
Figure 6/7/8 tables plus the headline-claim summary and the Section 7
swaptions analysis. At the default TINY scale the sweep takes a couple
of minutes; pass ``small`` or ``paper`` (much slower) to grow the
inputs.

Usage::

    python examples/figure_reproduction.py [tiny|small|paper] [max_threads]
"""

import sys

from repro import PAPER_BENCHMARKS, ScalePreset
from repro.eval import (
    figure6,
    figure7,
    figure8,
    headline_summary,
    swaptions_analysis,
    table1_setup,
)
from repro.eval.experiments import DEFAULT_THREADS
from repro.eval.reporting import (
    render_figure6,
    render_figure7,
    render_figure8,
    render_headline,
    render_mapping,
)


def main():
    scale = ScalePreset(sys.argv[1]) if len(sys.argv) > 1 else ScalePreset.TINY
    max_threads = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    thread_counts = tuple(t for t in DEFAULT_THREADS if t <= max_threads)

    print(render_mapping("Table 1: simulated machine",
                         dict(table1_setup(max_threads))))
    print()

    for lifeguard in ("taintcheck", "addrcheck"):
        print(render_figure6(figure6(lifeguard, PAPER_BENCHMARKS,
                                     thread_counts, scale)))
        print()
        print(render_figure7(figure7(lifeguard, PAPER_BENCHMARKS,
                                     thread_counts, scale)))
        print()
        print(render_figure8(figure8(lifeguard, PAPER_BENCHMARKS,
                                     max_threads, scale)))
        print()

    print("Headline claims (abstract):")
    print(render_headline(headline_summary(PAPER_BENCHMARKS, max_threads,
                                           scale)))
    print()
    print(render_mapping("Section 7 swaptions analysis",
                         swaptions_analysis(max_threads, scale)))


if __name__ == "__main__":
    main()
