"""Table 1: the simulated machine and benchmark configuration.

Table 1 in the paper is the experimental setup, not a measurement; this
bench materializes the active configuration.
"""

import pytest

from repro.eval import format_table, table1_setup
from repro.workloads import PAPER_BENCHMARKS, build_workload

pytestmark = pytest.mark.slow


def test_table1_configuration(publish, max_threads, scale, seed):
    rows = table1_setup(threads=max_threads)
    workload_rows = []
    for name in PAPER_BENCHMARKS:
        workload = build_workload(name, max_threads, scale, seed)
        description = {k: v for k, v in workload.describe().items()
                       if k not in ("name", "seed")}
        workload_rows.append((name, str(description)))
    text = "Table 1 — simulated machine\n"
    text += format_table(["parameter", "value"], rows)
    text += "\n\nTable 1 — benchmark instances\n"
    text += format_table(["benchmark", "instance"], workload_rows)
    publish("table1_setup", text)
