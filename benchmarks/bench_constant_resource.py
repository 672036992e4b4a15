"""The Constant-Resource comparison the paper describes in Section 7.

The main evaluation is Constant-Application-Size (k app threads get 2k
cores once monitoring turns on). The paper notes the complementary
framing: with a *fixed* core budget, monitoring costs the application
half its cores. This bench quantifies that opportunity cost exactly the
way the paper says it can be derived from Figure 6's data.
"""

import pytest

from repro.eval import constant_resource_comparison, format_table
from repro.workloads import PAPER_BENCHMARKS

pytestmark = pytest.mark.slow


def test_constant_resource(publish, max_threads, scale, seed):
    cores = max_threads if max_threads % 2 == 0 else max_threads - 1
    comparison = constant_resource_comparison(PAPER_BENCHMARKS, cores,
                                              scale, seed)
    rows = [
        (bench,
         cell["all_cores_unmonitored_cycles"],
         cell["half_cores_monitored_cycles"],
         cell["opportunity_cost"])
        for bench, cell in comparison.items()
    ]
    publish("constant_resource",
            f"Constant-Resource comparison ({cores} cores total)\n"
            + format_table(
                ["benchmark", f"{cores}-thread unmonitored",
                 f"{cores // 2}-thread monitored", "opportunity cost"],
                rows))
    # Monitoring on half the cores always costs something relative to
    # the application owning the whole machine.
    for bench, cell in comparison.items():
        assert cell["opportunity_cost"] > 1.0, bench
