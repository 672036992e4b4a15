"""Figure 8 (TaintCheck): accelerator + dependence-reduction ablation.

Three bars per benchmark at the maximum thread count: NOT ACCELERATED
(aggressive reduction), ACCELERATED with LIMITED (per-core) reduction,
and ACCELERATED with AGGRESSIVE (per-block) reduction. The paper's
claims: acceleration buys 2x-9/10x, and the limited-reduction design
loses little except on the dependence-heavy benchmarks.
"""

import pytest

from repro.eval import figure8
from repro.eval.reporting import render_figure8
from repro.workloads import PAPER_BENCHMARKS

pytestmark = pytest.mark.slow


def test_figure8_taintcheck(publish, max_threads, scale, seed):
    result = figure8("taintcheck", PAPER_BENCHMARKS, max_threads, scale,
                     seed)
    publish("figure8_taintcheck", render_figure8(result))
    for bench in PAPER_BENCHMARKS:
        cell = result.slowdowns[bench]
        # Accelerators always help TaintCheck...
        assert result.accelerator_speedup(bench) > 1.0, bench
        # ...and the less-aggressive capture design stays viable (the
        # paper: "a less aggressive design also appears to be a viable
        # design option"); 5% slack absorbs scheduling noise on the
        # contention-heavy benchmarks.
        assert (cell["accelerated_limited"]
                <= cell["not_accelerated"] * 1.05), bench
