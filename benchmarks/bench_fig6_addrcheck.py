"""Figure 6 (AddrCheck): NO MONITORING vs TIMESLICED vs PARALLEL.

The bottom chart of Figure 6. AddrCheck's parallel overhead should be
near zero for every benchmark except swaptions (whose malloc/free
ConflictAlert barriers dominate), and the timesliced scheme should lose
by a growing factor as threads are added.
"""

import pytest

from repro.eval import figure6
from repro.eval.reporting import render_figure6
from repro.workloads import PAPER_BENCHMARKS

pytestmark = pytest.mark.slow


def test_figure6_addrcheck(publish, thread_counts, scale, seed):
    result = figure6("addrcheck", PAPER_BENCHMARKS, thread_counts, scale,
                     seed)
    publish("figure6_addrcheck", render_figure6(result))
    threads = thread_counts[-1]
    for bench in PAPER_BENCHMARKS:
        cell = result.cycles[bench][threads]
        slowdown = cell["parallel"] / cell["no_monitoring"]
        if bench != "swaptions":
            # "does not incur any practical overhead in the majority of
            # the cases" — allow slack for the tiny-scale inputs.
            assert slowdown < 1.6, (bench, slowdown)
        if threads > 1:
            assert result.speedup_over_timesliced(bench, threads) > 1.0
