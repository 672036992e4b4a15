"""The abstract's headline claims, measured on this reproduction.

Paper (16-core CMP, 8 app threads): (i) parallel accelerators improve
performance by 2-9x (TaintCheck) and 1.13-3.4x (AddrCheck); (ii) 5-126x
faster than time-slicing; (iii) average 8-thread overheads of 51% and
28%. The bench prints the measured equivalents; EXPERIMENTS.md records
the paper-vs-measured comparison.
"""

import pytest

from repro.eval import format_table, headline_summary
from repro.workloads import PAPER_BENCHMARKS

pytestmark = pytest.mark.slow


def test_headline_claims(publish, max_threads, scale, seed):
    summary = headline_summary(PAPER_BENCHMARKS, max_threads, scale, seed)
    rows = []
    for key, value in summary.items():
        if isinstance(value, dict):
            rows.extend((f"{key}.{inner}", inner_value)
                        for inner, inner_value in value.items())
        else:
            rows.append((key, value))
    publish("headline_claims",
            "Headline claims (abstract)\n" + format_table(
                ["metric", "value"], rows))

    # Directional checks on the three claims.
    taintcheck = summary["taintcheck"]
    addrcheck = summary["addrcheck"]
    assert taintcheck["accelerator_speedup_max"] > 1.3
    assert addrcheck["accelerator_speedup_max"] >= 1.0
    assert taintcheck["accelerator_speedup_max"] > \
        addrcheck["accelerator_speedup_max"] * 0.9
    assert summary["timesliced_speedup_max"] > 2.0
    # AddrCheck is the cheaper lifeguard on average.
    assert addrcheck["average_overhead"] < taintcheck["average_overhead"]
