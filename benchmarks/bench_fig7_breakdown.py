"""Figure 7: parallel-monitoring slowdown breakdown for both lifeguards.

Decomposes each slowdown bar into useful work, waiting-for-dependence
and waiting-for-application, normalized to the same-thread-count
unmonitored run. Expected shape (Section 7): barnes's TaintCheck bar is
dominated by useful work; swaptions is the stall-bound outlier for both
lifeguards (point-to-point synchronization + CA barriers); AddrCheck
spends much of its time waiting for the application.
"""

import pytest

from repro.eval import figure7
from repro.eval.reporting import render_figure7
from repro.workloads import PAPER_BENCHMARKS

pytestmark = pytest.mark.slow


def test_figure7_taintcheck(publish, thread_counts, scale, seed):
    result = figure7("taintcheck", PAPER_BENCHMARKS, thread_counts, scale,
                     seed)
    publish("figure7_taintcheck", render_figure7(result))
    threads = thread_counts[-1]
    # swaptions must be the most dependence-bound benchmark.
    dependence_share = {
        bench: (cells[threads]["wait_dependence"]
                / cells[threads]["slowdown"])
        for bench, cells in result.breakdown.items()
    }
    assert max(dependence_share, key=dependence_share.get) == "swaptions"


def test_figure7_addrcheck(publish, thread_counts, scale, seed):
    result = figure7("addrcheck", PAPER_BENCHMARKS, thread_counts, scale,
                     seed)
    publish("figure7_addrcheck", render_figure7(result))
    threads = thread_counts[-1]
    swaptions = result.breakdown["swaptions"][threads]
    others = [cells[threads]["slowdown"]
              for bench, cells in result.breakdown.items()
              if bench != "swaptions"]
    # swaptions is the AddrCheck outlier; the others stay close to 1x.
    assert swaptions["slowdown"] > max(others)
