"""Figure 6 (TaintCheck): NO MONITORING vs TIMESLICED vs PARALLEL.

Regenerates the top chart of Figure 6: normalized execution time for
every Table 1 benchmark at 1-8 application threads under the three
schemes. The expected shape: PARALLEL tracks NO MONITORING within a
small factor while TIMESLICED blows up with the thread count; the
timesliced/parallel speedup column is the paper's 1.5x-85x claim.
"""

import pytest

from repro.eval import figure6
from repro.eval.reporting import render_figure6
from repro.workloads import PAPER_BENCHMARKS

pytestmark = pytest.mark.slow


def test_figure6_taintcheck(publish, thread_counts, scale, seed):
    result = figure6("taintcheck", PAPER_BENCHMARKS, thread_counts, scale,
                     seed)
    publish("figure6_taintcheck", render_figure6(result))
    # Shape assertions from the paper's claims: parallel always beats
    # timesliced at >=2 threads and the gap widens with the thread count.
    for bench in PAPER_BENCHMARKS:
        multi = [t for t in thread_counts if t > 1]
        for threads in multi:
            assert result.speedup_over_timesliced(bench, threads) > 1.0
        if len(multi) >= 2:
            assert (result.speedup_over_timesliced(bench, multi[-1])
                    > result.speedup_over_timesliced(bench, multi[0]) * 0.8)
