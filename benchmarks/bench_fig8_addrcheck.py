"""Figure 8 (AddrCheck): accelerator ablation.

Two bars per benchmark (the paper omits the limited-reduction bar for
AddrCheck): NOT ACCELERATED vs ACCELERATED. Expected shape: large wins
on the check-heavy benchmarks, no practical speedup where AddrCheck's
overhead is already negligible (the paper's LU and FMM).
"""

import pytest

from repro.eval import figure8
from repro.eval.reporting import render_figure8
from repro.workloads import PAPER_BENCHMARKS

pytestmark = pytest.mark.slow


def test_figure8_addrcheck(publish, max_threads, scale, seed):
    result = figure8("addrcheck", PAPER_BENCHMARKS, max_threads, scale, seed)
    publish("figure8_addrcheck", render_figure8(result))
    for bench in PAPER_BENCHMARKS:
        # Acceleration never hurts (within simulation noise).
        assert result.accelerator_speedup(bench) > 0.95, bench
